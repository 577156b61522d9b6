// Package runner observes from inside memo-key computation:
// fingerprintKey logs while rendering the content address, and dumpKey —
// not on the declared key-function list, but naming the key type — prints
// a key. The layering table's memo-key row forbids both.
package runner

import (
	"fmt"
	"log/slog"
	"time"
)

type cacheKey struct {
	workload int
	seed     uint64
}

// fingerprintKey emits a log line while computing the content address.
func fingerprintKey(key cacheKey) string {
	slog.Info("fingerprinting", "workload", key.workload)
	return fmt.Sprintf("%#v", key)
}

var _ = fingerprintKey

// dumpKey joins the memo-key surface by naming cacheKey, so its stream
// print is caught even under a fresh name.
func dumpKey(key cacheKey) {
	fmt.Printf("%#v\n", key)
}

var _ = dumpKey

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
