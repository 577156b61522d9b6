// Package runner computes its memo key without observing anything:
// fingerprintKey renders with fmt.Sprintf only — pure, so the layering
// table's memo-key row stays quiet.
package runner

import (
	"fmt"
	"time"
)

// Elapsed reads the wall clock for progress logging — legal in the
// runner: the value never reaches a result, report, journal or memo key,
// so detertaint has no sink to connect it to.
func Elapsed(since time.Time) int64 {
	return time.Since(since).Milliseconds()
}

type cacheKey struct {
	workload int
	seed     uint64
}

var _ = cacheKey{}

// fingerprintKey renders the key to its content address. fmt.Sprintf is a
// pure renderer, not a stream write, so the memo-key row allows it.
func fingerprintKey(key cacheKey) string {
	return fmt.Sprintf("%#v", key)
}

var _ = fingerprintKey
