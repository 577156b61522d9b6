package sim

import (
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
	"repro/internal/vmm"
)

// drainMachinePool empties the machine pool and returns the kernels it
// held, in pool order, so that the next acquire boots a fresh kernel; the
// parked Fragmenters and run kits are dropped too. Tests that compare a
// pooled run against a fresh one call it where the fresh boot is meant:
// the pool serves any parked kernel to a run of any size.
func drainMachinePool() []*kernel.Kernel {
	machinePoolMu.Lock()
	defer machinePoolMu.Unlock()
	parked := machinePool
	machinePool, fragPool, kitPool = nil, nil, nil
	return parked
}

// TestAcquireKernelFit checks which parked kernel an acquire takes: the
// same size whatever its flavour, then the largest of the smaller kernels,
// then the smallest of the larger ones, whatever order they were parked
// in.
func TestAcquireKernelFit(t *testing.T) {
	const gb = units.Page1G
	thp, tri := units.Order2M, units.TridentMaxOrder
	for _, tc := range []struct {
		name     string
		parked   [][2]uint64 // (memBytes, maxOrder) in park order
		memBytes uint64
		maxOrder int
		want     int // index into parked
	}{
		{"same size whatever the flavour", [][2]uint64{{1 * gb, uint64(thp)}, {2 * gb, uint64(thp)}, {2 * gb, uint64(tri)}, {3 * gb, uint64(thp)}}, 2 * gb, thp, 2},
		{"same size", [][2]uint64{{3 * gb, uint64(thp)}, {2 * gb, uint64(tri)}, {1 * gb, uint64(thp)}}, 2 * gb, thp, 1},
		{"grow the largest smaller", [][2]uint64{{3 * gb, uint64(thp)}, {1 * gb, uint64(thp)}, {2 * gb, uint64(thp)}, {6 * gb, uint64(thp)}}, 4 * gb, thp, 0},
		{"grow before shrinking", [][2]uint64{{1 * gb, uint64(thp)}, {4 * gb, uint64(thp)}}, 3 * gb, thp, 0},
		{"shrink the smallest larger", [][2]uint64{{4 * gb, uint64(thp)}, {2 * gb, uint64(thp)}, {3 * gb, uint64(thp)}}, 1 * gb, tri, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drainMachinePool()
			defer drainMachinePool()
			var ks []*kernel.Kernel
			for _, p := range tc.parked {
				k := kernel.New(p[0], int(p[1]))
				ks = append(ks, k)
				releaseKernel(k)
			}
			k := acquireKernel(tc.memBytes, tc.maxOrder)
			if k != ks[tc.want] {
				for i := range ks {
					if k == ks[i] {
						t.Fatalf("took parked kernel %d, want %d", i, tc.want)
					}
				}
				t.Fatalf("booted a fresh kernel, want parked kernel %d", tc.want)
			}
			if k.Mem.Bytes() != tc.memBytes || k.Buddy.MaxOrder() != tc.maxOrder {
				t.Fatalf("got %d bytes, max order %d; want %d, %d", k.Mem.Bytes(), k.Buddy.MaxOrder(), tc.memBytes, tc.maxOrder)
			}
		})
	}
}

// BenchmarkKernelReuse measures one pool cycle — acquire a kernel, dirty it
// the way a run does (a task, a VMA, a spread of 2MB allocations), release
// it (which Resets it) — against the kernel.New boot the pool replaces.
// "pooled" reacquires a kernel of the same size and flavour; "resized"
// alternates between two sizes, and "reflavoured" between the two buddy
// flavours at one size, so every acquire re-boots the one parked kernel
// at another size or flavour. The "boot" sub-benchmark is the baseline:
// what every grid job paid per machine before pooling.
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
		drainMachinePool()
		releaseKernel(kernel.New(memBytes, maxOrder))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := acquireKernel(memBytes, maxOrder)
			dirty(b, k)
			releaseKernel(k)
		}
	})
	b.Run("resized", func(b *testing.B) {
		drainMachinePool()
		releaseKernel(kernel.New(2*memBytes, maxOrder))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := acquireKernel(memBytes<<(i%2), maxOrder)
			dirty(b, k)
			releaseKernel(k)
		}
	})
	b.Run("reflavoured", func(b *testing.B) {
		drainMachinePool()
		releaseKernel(kernel.New(memBytes, maxOrder))
		orders := [2]int{units.StockMaxOrder, maxOrder}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := acquireKernel(memBytes, orders[i%2])
			dirty(b, k)
			releaseKernel(k)
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

// TestWarmRunAllocs pins the warm-run allocation invariant (DESIGN.md
// §5c): once the machine pool has parked what a run of a config uses —
// kernels, Fragmenter, run kit — the next such run allocates a fixed
// number of objects, whatever its footprint and access count. Whatever
// grows with either (a span list regrown per scan, a VMA list rebuilt per
// munmap, a lut rebuilt per insert batch) changes the count between the
// two scales or the two access counts. testing.AllocsPerRun warms each
// config with a run of its own before it counts. The runtime's own
// background work now and then lands an allocation in a measured run (about
// one run in 300 of a warm virtualized run, more right after the heap
// grows); it only ever adds, so while the counts disagree each config is
// measured again, twice at most, and keeps its lowest count.
func TestWarmRunAllocs(t *testing.T) {
	for _, name := range []string{"GUPS", "Redis"} {
		for _, policy := range []PolicyKind{PolicyTHP, PolicyHawkEye, PolicyTrident} {
			for _, mode := range []string{"native", "virtualized", "fragmented"} {
				t.Run(name+"/"+policy.String()+"/"+mode, func(t *testing.T) {
					var cfgs []Config
					for _, scale := range []float64{0.125, 0.25} {
						for _, accesses := range []int{20_000, 40_000} {
							cfg := testConfig(name, policy)
							cfg.Scale, cfg.Accesses = scale, accesses
							switch mode {
							case "virtualized":
								cfg.Virtualized, cfg.HostPolicy = true, policy
							case "fragmented":
								cfg.Fragment = true
							}
							cfgs = append(cfgs, cfg)
						}
					}
					counts := make([]float64, len(cfgs))
					for attempt := 0; attempt < 3; attempt++ {
						for i, cfg := range cfgs {
							n := testing.AllocsPerRun(2, func() { mustRun(t, cfg) })
							if attempt == 0 || n < counts[i] {
								counts[i] = n
							}
						}
						if slices.Min(counts) == slices.Max(counts) {
							t.Logf("%v objects per warm run", counts[0])
							return
						}
					}
					t.Fatalf("warm runs allocate %v objects at (scale, accesses) = (0.125, 20k), (0.125, 40k), (0.25, 20k), (0.25, 40k); want one count", counts)
				})
			}
		}
	}
}
