// Package kernel seeds two layering violations against the standard
// library — a math/rand import outside internal/xrand and a host-clock
// sleep in the simulated world — and a malformed suppression directive:
// the //lint:ignore below names a check but gives no reason, so it must be
// reported itself AND fail to suppress the time.Sleep finding.
package kernel

import (
	"math/rand"
	"time"
)

// Roll draws from math/rand outside internal/xrand.
func Roll() int {
	return rand.Int()
}

// Nap sleeps on the host clock; the reasonless directive above it must not
// silence the finding.
func Nap() {
	//lint:ignore layering
	time.Sleep(time.Millisecond)
}
