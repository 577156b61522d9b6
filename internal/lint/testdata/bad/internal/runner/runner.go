// Package runner carries a memo key that has drifted from sim.Config:
// Config.Extra is neither keyed nor excluded, Config.Shape is both keyed
// and excluded, and the exclusion list names a field ("Obs") that no
// longer exists. fingerprintKey additionally logs from inside memo-key
// computation, which the obspure check forbids.
package runner

import (
	"fmt"
	"log/slog"
	"time"
)

type cacheKey struct {
	workload int
	seed     uint64
	shape    int
}

var _ = cacheKey{}

// MemoKeyExclusions has a stale entry: bad/internal/sim.Config has no Obs
// field.
var MemoKeyExclusions = map[string]string{
	"Obs":   "stale entry left behind after a rename",
	"Shape": "loop-shape only — but the key fingerprints it too, so one side must go",
}

// fingerprintKey emits a log line while computing the content address:
// observation inside memo-key computation, the obspure violation.
func fingerprintKey(key cacheKey) string {
	slog.Info("fingerprinting", "workload", key.workload)
	return fmt.Sprintf("%#v", key)
}

var _ = fingerprintKey

// Touch exists so the fixture sim package has something to import.
func Touch() {}

// hostStamp reads the wall clock. The runner sits outside the simulated
// world that layering fences off from the host clock, so that rule stays
// silent here — only the interprocedural taint analysis can follow the
// value onward.
func hostStamp() int64 {
	return time.Now().UnixNano()
}

// StampWrapper is the second hop: the ambient value crosses two calls
// before bad/internal/experiments assigns it into a sim.Result field.
func StampWrapper() int64 {
	return hostStamp()
}
