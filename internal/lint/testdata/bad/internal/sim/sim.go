// Package sim seeds deliberate violations for tridentlint's golden tests
// and the CI negative gate: an aliased wall-clock read, an environment
// read and a layering breach (sim importing the runner) for the layering
// table, and two unsorted map-order emissions and a map-ordered float sum
// for detertaint.
package sim

import (
	"fmt"
	"io"
	"os"
	tt "time"

	"bad/internal/runner"
)

// Config mirrors the real sim.Config shape.
type Config struct {
	Workload int
	Seed     uint64
}

// Result mirrors the real sim.Result: the byte-identical output surface
// detertaint protects. Stamp is the field bad/internal/experiments fills
// from a two-hop wall-clock wrapper.
type Result struct {
	Cycles uint64
	Stamp  int64
}

// setDefaults fills an unset seed from the environment: an ambient input
// that changes every Result without changing Config, and so the memo key.
func (c *Config) setDefaults() {
	if c.Seed == 0 {
		c.Seed = uint64(len(os.Getenv("TRIDENT_SEED")))
	}
}

var _ = runner.Touch // layering: the simulated world must not import the engine above it

// Stamp reads the wall clock through an aliased import — the exact hole
// the old grep-based lint could not see.
func Stamp() int64 {
	return tt.Now().UnixNano()
}

// Dump emits in map-iteration order.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Mark writes a constant line per entry through an interface, but which
// line comes first follows map iteration order: only the control
// dependence of the call on the range catches it.
func Mark(w io.Writer, m map[string]bool) {
	for _, hot := range m {
		line := "cold\n"
		if hot {
			line = "hot\n"
		}
		w.Write([]byte(line))
	}
}

// Reclaim splits want pages across regions in proportion to their
// weights. sumW is summed in map order, and float addition is not
// associative, so a 1-ulp difference between two orders can flip a
// quota: the sum reaches no sink by value, only the loop bounds.
func Reclaim(held map[int][]uint64, weight []float64, want uint64) uint64 {
	var sumW float64
	for r, pages := range held {
		if len(pages) > 0 {
			sumW += weight[r]
		}
	}
	var freed uint64
	for r := range weight {
		quota := uint64(float64(want) * weight[r] / sumW)
		for i := uint64(0); i < quota && i < uint64(len(held[r])); i++ {
			freed++
		}
	}
	return freed
}
