package pagetable

import (
	"testing"

	"repro/internal/units"
)

// TestLeafTableFootprint pins what a 4KB-mapped region costs: each leaf
// table, with its share of the directories above it, at most 4,160 B of
// heap, which needs the 4,096-byte table to fill Go's 4,096-byte size class
// with nothing beside it. The cost is summed structurally (footprint), not
// read from runtime.MemStats, which the runtime's own background
// allocations perturb. Once a cycle of unmapping everything, refilling,
// resetting and refilling again has warmed the pools, the next cycle
// reuses the reclaimed tables: the footprint stays put.
func TestLeafTableFootprint(t *testing.T) {
	const pages = 2 * units.Page1G / units.Page4K
	tb := New()
	fill := func() {
		if n, err := tb.MapRun(0, 0, pages); n != pages || err != nil {
			t.Fatalf("MapRun mapped %d of %d pages: %v", n, pages, err)
		}
	}
	fill()
	bytes, leaves := tb.footprint()
	if leaves != pages/512 {
		t.Fatalf("%d leaf tables map %d pages", leaves, pages)
	}
	if per := bytes / uint64(leaves); per > 4160 {
		t.Errorf("a leaf table costs %d B, want at most 4160", per)
	}
	cycle := func() uint64 {
		tb.UnmapRuns(0, MaxVA, func(Run) {})
		fill()
		tb.Reset()
		fill()
		bytes, _ := tb.footprint()
		return bytes
	}
	if warm, again := cycle(), cycle(); again != warm {
		t.Errorf("a second unmap, refill and Reset cycle took the tables from %d B to %d B", warm, again)
	}
}
