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

// Tally sums in map order only where the order cannot show: a float per
// map cell (each cell sees one update per key) and an integer total
// (integer addition is associative).
func Tally(phaseMs map[string]float64, pages map[int][]uint64) (map[string]float64, uint64) {
	byPhase := map[string]float64{}
	for phase, ms := range phaseMs {
		byPhase[phase] += ms
	}
	var n uint64
	for _, p := range pages {
		n += uint64(len(p))
	}
	return byPhase, n
}

// KeySums sums each key's samples in slice order: the accumulator is
// declared afresh on every map iteration, so map order cannot reach it.
func KeySums(samples map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for k, xs := range samples {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		out[k] = s
	}
	return out
}
