package tlb

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkHierarchyProbe measures the VA-only fast-path probe on a warm
// hierarchy — the single hottest operation in the simulator (one call per
// simulated memory reference).
func BenchmarkHierarchyProbe(b *testing.B) {
	h := NewHierarchy(Skylake())
	// Warm a 2MB-page working set that fits the shared L2.
	const pages = 512
	vas := make([]uint64, pages)
	for i := range vas {
		vas[i] = uint64(i) * units.Page2M
		h.Access(vas[i], units.Size2M)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := h.Probe(vas[i%pages]); !ok {
			b.Fatal("probe missed on a warm working set")
		}
	}
}

// BenchmarkHierarchyProbeMiss measures the full-miss probe (every sub-TLB
// checked, nothing found) — the cost added to the fault/walk path.
func BenchmarkHierarchyProbeMiss(b *testing.B) {
	h := NewHierarchy(Skylake())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct unmapped VAs: nothing is ever inserted, so all miss.
		if _, _, ok := h.Probe(uint64(i) * units.Page1G); ok {
			b.Fatal("probe hit on an empty hierarchy")
		}
	}
}
