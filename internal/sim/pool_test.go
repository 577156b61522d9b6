package sim

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
	"repro/internal/vmm"
)

// BenchmarkKernelReuse measures one pool cycle — acquire a kernel, dirty it
// the way a run does (a task, a VMA, a spread of 2MB allocations), release
// it (which Resets it) — against the kernel.New boot the pool replaces.
// The "boot" sub-benchmark is the baseline: what every grid job paid per
// machine before pooling.
func BenchmarkKernelReuse(b *testing.B) {
	const memBytes = 2 * units.Page1G
	const maxOrder = units.TridentMaxOrder
	dirty := func(b *testing.B, k *kernel.Kernel) {
		t := k.NewTask("bench")
		va, err := t.AS.MMapAligned(64*units.Page2M, units.Page2M, vmm.KindAnon)
		if err != nil {
			b.Fatal(err)
		}
		for off := uint64(0); off < 64*units.Page2M; off += units.Page2M {
			if _, err := k.AllocMapped(t, va+off, units.Size2M); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("pooled", func(b *testing.B) {
		releaseKernel(memBytes, kernel.New(memBytes, maxOrder))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := acquireKernel(memBytes, maxOrder)
			dirty(b, k)
			releaseKernel(memBytes, k)
		}
	})
	b.Run("boot", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dirty(b, kernel.New(memBytes, maxOrder))
		}
	})
}
