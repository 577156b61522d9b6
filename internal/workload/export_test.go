package workload

// SetPerFault turns fault-around off (on) or back on for every touch in
// the test binary, sims included, and returns the previous setting. Tests
// that use it must not run in parallel with others.
func SetPerFault(on bool) bool {
	old := perFault
	perFault = on
	return old
}

// Touch is touch, for the external tests.
var Touch = (*Instance).touch
