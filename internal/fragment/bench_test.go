package fragment

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
)

// BenchmarkApply fragments a 4GB stock-buddy machine the way fig10-frag's
// jobs do (1/128 of memory unmovable, 2.5GB left free), resetting the
// kernel between iterations as the machine pool does between runs.
func BenchmarkApply(b *testing.B) {
	k := kernel.New(4*units.Page1G, units.StockMaxOrder)
	cfg := Config{Seed: 3, UnmovableBytes: 32 * units.MiB, FreeBytes: 5 * units.Page1G / 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset()
		if _, err := Apply(k, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
