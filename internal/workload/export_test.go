package workload

// Touch is touch, for the external tests.
var Touch = (*Instance).touch
