// Package sim is the clean twin of the bad fixture: every determinism
// idiom done right. tridentlint must stay completely silent on this
// module.
package sim

import (
	"sort"
	"time"
)

// Config mirrors the real sim.Config shape.
type Config struct {
	Workload int
	Seed     uint64
}

// Result is the deterministic output surface: every field a pure function
// of Config.
type Result struct {
	Cycles uint64
}

// Finish fills the result from computed state only — detertaint must see
// nothing ambient here.
func Finish(r *Result, cycles uint64) {
	r.Cycles = cycles
}

// Tick is duration arithmetic, not a clock read — legal everywhere.
const Tick = 5 * time.Millisecond

// Later compares two given instants: time.Time.After is a method, not the
// banned time.After timer.
func Later(a, b time.Time) bool { return a.After(b) }

// Keys returns sorted map keys: the blessed iteration idiom. The append
// inside the range is fine because the slice is sorted before use.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostNow is a deliberate wall-clock read carrying a well-formed
// suppression: the directive names the check and gives a reason, so the
// finding must be silenced and the module stays clean.
//
//lint:ignore layering fixture: proves a reasoned suppression is honored
func hostNow() int64 { return time.Now().UnixNano() }

var _ = hostNow
