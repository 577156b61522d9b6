package fault

import (
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/zerofill"
)

func setup(t *testing.T, gb uint64) (*kernel.Kernel, *kernel.Task) {
	t.Helper()
	k := kernel.New(gb*units.Page1G, units.TridentMaxOrder)
	return k, k.NewTask("p")
}

func TestBase4K(t *testing.T) {
	k, task := setup(t, 1)
	va, _ := task.AS.MMap(units.Page2M, vmm.KindAnon)
	p := NewBase4K(k)
	r, err := p.Handle(task, va+5000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K || r.VA != va+units.Page4K {
		t.Errorf("result = %+v", r)
	}
	if p.S.Faults[units.Size4K] != 1 {
		t.Error("fault not counted")
	}
	wantLat := perfmodel.FaultSetup4KNs + perfmodel.ZeroNs(units.Page4K)
	if r.LatencyNs != wantLat {
		t.Errorf("latency = %v, want %v", r.LatencyNs, wantLat)
	}
}

func TestFaultOutsideVMA(t *testing.T) {
	k, task := setup(t, 1)
	p := NewBase4K(k)
	if _, err := p.Handle(task, 0x1000); err == nil {
		t.Error("fault outside VMA did not error")
	}
}

func TestTHPMaps2MWhenPossible(t *testing.T) {
	k, task := setup(t, 1)
	va, _ := task.AS.MMapAligned(4*units.Page2M, units.Page2M, vmm.KindAnon)
	p := NewTHP(k)
	r, err := p.Handle(task, va+units.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size2M || r.VA != va {
		t.Errorf("result = %+v", r)
	}
	// ~850µs latency (§5.1.2).
	if us := r.LatencyNs / 1e3; us < 800 || us > 900 {
		t.Errorf("2MB fault latency = %v µs", us)
	}
}

func TestTHPFallsBackTo4K(t *testing.T) {
	k, task := setup(t, 1)
	// A VMA too small and unaligned for a 2MB page.
	va, _ := task.AS.MMap(4*units.Page4K, vmm.KindAnon)
	p := NewTHP(k)
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K {
		t.Errorf("expected 4KB fallback, got %v", r.Size)
	}
}

func TestTHPFallsBackWhenRangePartiallyMapped(t *testing.T) {
	k, task := setup(t, 1)
	va, _ := task.AS.MMapAligned(units.Page2M, units.Page2M, vmm.KindAnon)
	p := NewTHP(k)
	// Pre-map a 4KB page in the middle of the 2MB range.
	base := NewBase4K(k)
	if _, err := base.Handle(task, va+100*units.Page4K); err != nil {
		t.Fatal(err)
	}
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size2M {
		// Falling back is required; attempt must not be counted as a
		// fragmentation failure.
		if p.S.Attempts2M != 0 {
			t.Error("partially-mapped range counted as 2MB attempt")
		}
	} else {
		t.Error("mapped 2MB over an existing 4KB page")
	}
}

func TestTHPFailureCountsWhenNoChunks(t *testing.T) {
	k, task := setup(t, 1)
	// Exhaust contiguity: allocate everything as 4KB in a pattern leaving no
	// free 2MB chunk. Simplest: allocate all frames, then free one 4KB frame
	// per 2MB block.
	var held []uint64
	for {
		pfn, err := k.Buddy.Alloc(units.Order2M, false)
		if err != nil {
			break
		}
		held = append(held, pfn)
	}
	for _, pfn := range held {
		k.Buddy.Free(pfn+3, 0) // free one interior 4KB frame
	}
	va, _ := task.AS.MMapAligned(units.Page2M, units.Page2M, vmm.KindAnon)
	p := NewTHP(k)
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K {
		t.Fatalf("expected 4KB under fragmentation, got %v", r.Size)
	}
	if p.S.Attempts2M != 1 || p.S.Failed2M != 1 {
		t.Errorf("attempt/fail = %d/%d", p.S.Attempts2M, p.S.Failed2M)
	}
}

func TestHugetlbfsPool(t *testing.T) {
	k, task := setup(t, 2)
	h, short := NewHugetlbfs(k, units.Size2M, 3)
	if short != 0 {
		t.Fatalf("reservation shortfall %d", short)
	}
	if h.PoolAvailable() != 3 {
		t.Errorf("pool = %d", h.PoolAvailable())
	}
	va, _ := task.AS.MMapAligned(4*units.Page2M, units.Page2M, vmm.KindAnon)
	for i := 0; i < 3; i++ {
		r, err := h.Handle(task, va+uint64(i)*units.Page2M)
		if err != nil {
			t.Fatal(err)
		}
		if r.Size != units.Size2M {
			t.Fatalf("fault %d size %v", i, r.Size)
		}
	}
	// Pool exhausted: next fault gets 4KB.
	r, err := h.Handle(task, va+3*units.Page2M)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K {
		t.Errorf("post-exhaustion fault = %v", r.Size)
	}
}

func TestHugetlbfsSkipsStack(t *testing.T) {
	k, task := setup(t, 2)
	h, _ := NewHugetlbfs(k, units.Size2M, 8)
	sva, err := task.AS.MMapStack(4 * units.Page2M)
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Handle(task, units.AlignUp(sva, units.Page2M))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K {
		t.Errorf("stack fault used hugetlbfs: %v", r.Size)
	}
	if h.PoolAvailable() != 8 {
		t.Error("pool consumed for stack")
	}
}

func TestHugetlbfs1GReservationShortfall(t *testing.T) {
	k, _ := setup(t, 2)
	// Fragment: one unmovable page per region prevents 1GB reservation.
	for r := uint64(0); r < 2; r++ {
		if _, err := k.KernelAlloc(0); err != nil {
			t.Fatal(err)
		}
		// Push next kernel alloc into next region.
		if r == 0 {
			if err := k.Buddy.AllocSpecific(units.FramesPerRegion-1, 0, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, short := NewHugetlbfs(k, units.Size1G, 2)
	if short == 0 {
		t.Error("expected reservation shortfall under fragmentation")
	}
}

func TestTridentPrefers1G(t *testing.T) {
	k, task := setup(t, 4)
	z := zerofill.New(k)
	z.Refill(10)
	p := NewTrident(k, z)
	va, _ := task.AS.MMapAligned(2*units.Page1G, units.Page1G, vmm.KindAnon)
	r, err := p.Handle(task, va+123456789)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size1G || r.VA != va {
		t.Errorf("result = %+v", r)
	}
	// Pre-zeroed: ~2.7ms.
	if ms := r.LatencyNs / 1e6; ms < 2 || ms > 3.5 {
		t.Errorf("pre-zeroed 1GB fault = %v ms", ms)
	}
	if p.S.Sync1GZero != 0 {
		t.Error("sync zero used despite pool")
	}
}

func TestTridentSyncZeroWithoutPool(t *testing.T) {
	k, task := setup(t, 4)
	z := zerofill.New(k) // never refilled
	p := NewTrident(k, z)
	va, _ := task.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size1G {
		t.Fatalf("size = %v", r.Size)
	}
	if p.S.Sync1GZero != 1 {
		t.Error("sync zero not counted")
	}
	// ~400ms (§5.1.2).
	if ms := r.LatencyNs / 1e6; ms < 380 || ms > 420 {
		t.Errorf("sync 1GB fault = %v ms", ms)
	}
}

func TestTridentFallsBackTo2M(t *testing.T) {
	k, task := setup(t, 2)
	z := zerofill.New(k)
	p := NewTrident(k, z)
	// VMA is 2MB-mappable but not 1GB-mappable.
	va, _ := task.AS.MMapAligned(8*units.Page2M, units.Page2M, vmm.KindAnon)
	if units.IsAligned(va, units.Page1G) {
		// ensure not accidentally 1GB-mappable (VMA is only 16MB anyway)
		_ = va
	}
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size2M {
		t.Errorf("size = %v, want 2MB", r.Size)
	}
	if p.S.Attempts1G != 0 {
		t.Error("1GB attempt counted for non-1GB-mappable range")
	}
}

func TestTrident1GFragmentationFailure(t *testing.T) {
	k, task := setup(t, 2)
	z := zerofill.New(k)
	p := NewTrident(k, z)
	// One unmovable page per region: no 1GB chunk can exist.
	for r := uint64(0); r < 2; r++ {
		if err := k.Buddy.AllocSpecific(r*units.FramesPerRegion+5, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	va, _ := task.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size2M {
		t.Errorf("size = %v, want 2MB fallback", r.Size)
	}
	if p.S.Attempts1G != 1 || p.S.Failed1G != 1 {
		t.Errorf("1G attempt/fail = %d/%d", p.S.Attempts1G, p.S.Failed1G)
	}
}

func TestTrident1GonlySkips2M(t *testing.T) {
	k, task := setup(t, 2)
	z := zerofill.New(k)
	p := NewTrident(k, z)
	p.Use2M = false
	if p.Name() != "Trident-1Gonly" {
		t.Errorf("name = %q", p.Name())
	}
	// 2MB-mappable but not 1GB-mappable: must get 4KB.
	va, _ := task.AS.MMapAligned(8*units.Page2M, units.Page2M, vmm.KindAnon)
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K {
		t.Errorf("size = %v, want 4KB (no 2MB allowed)", r.Size)
	}
}

func TestTridentSkipsPartiallyMapped1GRange(t *testing.T) {
	k, task := setup(t, 4)
	z := zerofill.New(k)
	z.Refill(10)
	p := NewTrident(k, z)
	va, _ := task.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	// Pre-map one 4KB page inside the range.
	base := NewBase4K(k)
	if _, err := base.Handle(task, va+units.Page2M); err != nil {
		t.Fatal(err)
	}
	r, err := p.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size == units.Size1G {
		t.Error("1GB mapped over existing 4KB page")
	}
	if p.S.Attempts1G != 0 {
		t.Error("partially mapped range counted as 1G attempt")
	}
}

func TestPolicyNames(t *testing.T) {
	k, _ := setup(t, 1)
	z := zerofill.New(k)
	h, _ := NewHugetlbfs(k, units.Size1G, 0)
	names := map[string]bool{
		NewBase4K(k).Name():     true,
		NewTHP(k).Name():        true,
		h.Name():                true,
		NewTrident(k, z).Name(): true,
	}
	if len(names) != 4 {
		t.Errorf("policy names not distinct: %v", names)
	}
}

// libHugetlbfs backs the allocator's heap with whole huge pages even when
// the application's mmaps are small and incremental (the paper's Figure 1
// shows 1GB-Hugetlbfs helping Btree/Redis/Canneal; §7 notes the bloat).
func TestHugetlbfsGreedyBacksIncrementalHeap(t *testing.T) {
	k, task := setup(t, 4)
	h, short := NewHugetlbfs(k, units.Size1G, 2)
	if short != 0 {
		t.Fatal("reservation failed")
	}
	// A small mmap, nowhere near 1GB long.
	va, _ := task.AS.MMap(16*units.Page4K, vmm.KindAnon)
	r, err := h.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size1G {
		t.Fatalf("fault size = %v, want greedy 1GB", r.Size)
	}
	// The next small mmap in the same GB is already mapped.
	va2, _ := task.AS.MMap(16*units.Page4K, vmm.KindAnon)
	if m, ok := task.AS.PT.Lookup(va2); !ok || m.Size != units.Size1G {
		t.Error("second allocation not covered by the same 1GB page")
	}
	if h.PoolAvailable() != 1 {
		t.Errorf("pool = %d, want 1", h.PoolAvailable())
	}
}

// TestAroundAllocatesNothing: fault-around's run path — window, frames,
// mapping, stats and the trace hook — makes no heap allocation once the
// window's leaf table exists.
func TestAroundAllocatesNothing(t *testing.T) {
	k, task := setup(t, 1)
	const windows = 40
	va, _ := task.AS.MMapAligned(windows*units.Page2M, units.Page2M, vmm.KindAnon)
	hooked := 0
	p := Traced(NewBase4K(k), func(Result) { hooked++ })
	var first [windows]Result
	for i := range first {
		r, err := p.Handle(task, va+uint64(i)*units.Page2M)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = r
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var mapped uint64
	for _, r := range first {
		n, _, err := Around(p, task, r, va+windows*units.Page2M)
		if err != nil {
			t.Fatal(err)
		}
		mapped += n
	}
	runtime.ReadMemStats(&after)
	if mapped != windows*511 || hooked != windows*512 {
		t.Fatalf("mapped %d pages, hooked %d faults; want %d and %d", mapped, hooked, windows*511, windows*512)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("fault-around made %d heap allocations over %d windows", n, windows)
	}
}
