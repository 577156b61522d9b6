package buddy

import (
	"reflect"
	"testing"

	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

func newAlloc(t *testing.T, gb uint64, maxOrder int) *Allocator {
	t.Helper()
	return New(phys.NewMemory(gb*units.Page1G), maxOrder)
}

func TestNewValidation(t *testing.T) {
	mem := phys.NewMemory(units.Page1G)
	for _, bad := range []int{-1, 3, 19} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with max order %d did not panic", bad)
				}
			}()
			New(mem, bad)
		}()
	}
}

func TestFreshAllocatorState(t *testing.T) {
	a := newAlloc(t, 2, units.TridentMaxOrder)
	if a.FreeChunks(units.Order1G) != 2 {
		t.Errorf("fresh 2GB: %d 1GB chunks", a.FreeChunks(units.Order1G))
	}
	if a.FMFI(units.Order1G) != 0 {
		t.Errorf("fresh FMFI = %v", a.FMFI(units.Order1G))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStockMaxOrderTiling(t *testing.T) {
	a := newAlloc(t, 1, units.StockMaxOrder)
	// 1GB tiled with 4MB chunks = 256 chunks.
	if got := a.FreeChunks(units.StockMaxOrder); got != 256 {
		t.Errorf("stock tiling: %d chunks, want 256", got)
	}
	// Stock allocator cannot serve a 1GB request at all.
	if _, err := a.Alloc(units.Order1G, false); err == nil {
		t.Error("stock allocator served an order-18 request")
	}
}

func TestAllocLowestAddressFirst(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	p1, err := a.Alloc(0, false)
	if err != nil || p1 != 0 {
		t.Fatalf("first alloc = %d, %v; want 0", p1, err)
	}
	p2, _ := a.Alloc(0, false)
	if p2 != 1 {
		t.Fatalf("second alloc = %d; want 1", p2)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	pfn, err := a.Alloc(units.Order2M, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeChunks(units.Order1G) != 0 {
		t.Error("1GB chunk should have been split")
	}
	a.Free(pfn, units.Order2M)
	if a.FreeChunks(units.Order1G) != 1 {
		t.Errorf("free did not coalesce back to 1GB: %d", a.FreeChunks(units.Order1G))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceStopsAtAllocatedBuddy(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	p0, _ := a.Alloc(0, false)
	p1, _ := a.Alloc(0, false)
	a.Free(p0, 0)
	// p1 still allocated: no coalescing past order 0.
	if a.FreeChunks(0) != 1 {
		t.Errorf("order-0 free chunks = %d, want 1", a.FreeChunks(0))
	}
	a.Free(p1, 0)
	if a.FreeChunks(units.Order1G) != 1 {
		t.Error("full coalesce failed after both buddies freed")
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	if _, err := a.Alloc(units.Order1G, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(0, false); err != ErrNoMemory {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
}

func TestInvalidOrders(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	if _, err := a.Alloc(-1, false); err == nil {
		t.Error("Alloc(-1) succeeded")
	}
	if _, err := a.Alloc(19, false); err == nil {
		t.Error("Alloc(19) succeeded")
	}
	if err := a.AllocSpecific(0, 19, false); err == nil {
		t.Error("AllocSpecific(19) succeeded")
	}
}

func TestFreeMisalignedPanics(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	defer func() {
		if recover() == nil {
			t.Error("misaligned free did not panic")
		}
	}()
	a.Free(1, units.Order2M)
}

func TestDoubleFreePanics(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	pfn, _ := a.Alloc(0, false)
	a.Free(pfn, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(pfn, 0)
}

func TestAllocSpecific(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	// Claim the 2MB chunk at frame 512*3.
	target := uint64(512 * 3)
	if err := a.AllocSpecific(target, units.Order2M, false); err != nil {
		t.Fatal(err)
	}
	if !a.mem.IsAllocated(target) || a.mem.IsAllocated(target-1) {
		t.Error("AllocSpecific claimed wrong frames")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Claiming it again must fail.
	if err := a.AllocSpecific(target, units.Order2M, false); err != ErrNoMemory {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
	// Freeing restores a full 1GB chunk.
	a.Free(target, units.Order2M)
	if a.FreeChunks(units.Order1G) != 1 {
		t.Error("free after AllocSpecific did not coalesce")
	}
}

func TestAllocSpecificMisaligned(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	if err := a.AllocSpecific(1, units.Order2M, false); err == nil {
		t.Error("misaligned AllocSpecific succeeded")
	}
}

func TestAllocSpecificPartiallyAllocated(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	// Allocate one 4KB frame inside the 2MB chunk we will then request.
	if err := a.AllocSpecific(512*5+7, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := a.AllocSpecific(512*5, units.Order2M, false); err != ErrNoMemory {
		t.Errorf("expected ErrNoMemory for partially allocated chunk, got %v", err)
	}
}

func TestUnmovableFlagPropagates(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	pfn, _ := a.Alloc(2, true)
	if a.mem.Region(0).Unmovable != 4 {
		t.Errorf("unmovable count = %d, want 4", a.mem.Region(0).Unmovable)
	}
	a.Free(pfn, 2)
	if a.mem.Region(0).Unmovable != 0 {
		t.Error("unmovable count not cleared on free")
	}
}

func TestFMFI(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	// Allocate every other 4KB frame of the first 2MB: free memory is now a
	// mix of single frames and the large remainder.
	var held []uint64
	for i := 0; i < 512; i += 2 {
		if err := a.AllocSpecific(uint64(i), 0, false); err != nil {
			t.Fatal(err)
		}
		held = append(held, uint64(i))
	}
	fm := a.FMFI(units.Order2M)
	if fm <= 0 || fm >= 1 {
		t.Errorf("FMFI(2MB) = %v, want in (0,1)", fm)
	}
	// Order-0 requests can always be satisfied from any free memory.
	if got := a.FMFI(0); got != 0 {
		t.Errorf("FMFI(0) = %v, want 0", got)
	}
	for _, pfn := range held {
		a.Free(pfn, 0)
	}
	if got := a.FMFI(units.Order1G); got != 0 {
		t.Errorf("FMFI(1G) after frees = %v, want 0", got)
	}
}

func TestFMFIFullMemory(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	if _, err := a.Alloc(units.Order1G, false); err != nil {
		t.Fatal(err)
	}
	if got := a.FMFI(units.Order2M); got != 1 {
		t.Errorf("FMFI with zero free memory = %v, want 1", got)
	}
}

func TestFreeBytesAtOrder(t *testing.T) {
	a := newAlloc(t, 2, units.TridentMaxOrder)
	if got := a.FreeBytesAtOrder(units.Order1G); got != 2*units.Page1G {
		t.Errorf("FreeBytesAtOrder(1G) = %d", got)
	}
	// Break one region's contiguity.
	if err := a.AllocSpecific(0, 0, false); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeBytesAtOrder(units.Order1G); got != units.Page1G {
		t.Errorf("FreeBytesAtOrder(1G) after hole = %d", got)
	}
}

func TestFreeChunkHeadsSorted(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	var pfns []uint64
	for i := 0; i < 8; i++ {
		pfn, err := a.Alloc(units.Order2M, false)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, pfn)
	}
	// Free in reverse order, creating order-9 chunks at various addresses
	// (some coalesce upward).
	for i := len(pfns) - 1; i >= 0; i-- {
		a.Free(pfns[i], units.Order2M)
	}
	heads := a.FreeChunkHeads(units.Order1G)
	if len(heads) != 1 || heads[0] != 0 {
		t.Errorf("expected single 1GB chunk at 0, got %v", heads)
	}
}

// Property test: a random interleaving of allocs and frees preserves all
// allocator invariants and, after freeing everything, restores a fully
// coalesced state.
func TestRandomOpsInvariants(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	rng := xrand.New(2024)
	type chunk struct {
		pfn   uint64
		order int
	}
	var live []chunk
	for step := 0; step < 3000; step++ {
		if rng.Bool(0.6) || len(live) == 0 {
			order := rng.Intn(11) // up to 4MB requests
			pfn, err := a.Alloc(order, rng.Bool(0.1))
			if err == nil {
				live = append(live, chunk{pfn, order})
			}
		} else {
			i := rng.Intn(len(live))
			c := live[i]
			a.Free(c.pfn, c.order)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("after random ops: %v", err)
	}
	for _, c := range live {
		a.Free(c.pfn, c.order)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("after freeing all: %v", err)
	}
	if a.FreeChunks(units.Order1G) != 1 {
		t.Errorf("memory did not fully coalesce: %d 1GB chunks", a.FreeChunks(units.Order1G))
	}
}

func TestNoOverlapProperty(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	rng := xrand.New(7)
	seen := make(map[uint64]bool)
	for i := 0; i < 500; i++ {
		order := rng.Intn(7)
		pfn, err := a.Alloc(order, false)
		if err != nil {
			break
		}
		for f := pfn; f < pfn+(uint64(1)<<uint(order)); f++ {
			if seen[f] {
				t.Fatalf("frame %d handed out twice", f)
			}
			seen[f] = true
		}
	}
}

func BenchmarkAllocFree4K(b *testing.B) {
	a := New(phys.NewMemory(units.Page1G), units.TridentMaxOrder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := a.Alloc(0, false)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(pfn, 0)
	}
}

func BenchmarkAllocFree2M(b *testing.B) {
	a := New(phys.NewMemory(units.Page1G), units.TridentMaxOrder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := a.Alloc(units.Order2M, false)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(pfn, units.Order2M)
	}
}

// TestBootMatchesNew: a Reset allocator booted (after its memory) at
// another size and flavour must be indistinguishable from a new one —
// shrunk, grown beyond its capacity, and grown back within it. The flavour
// switches at each shrink, in both directions, and before each shrink a
// 2MB chunk at the top of memory is allocated and freed, so the bitmap
// words that then sit in spare capacity were written. The bitmap words a
// grow exposes are poisoned first: Boot clears them rather than trusting
// what the spare capacity holds.
func TestBootMatchesNew(t *testing.T) {
	for _, first := range []int{units.StockMaxOrder, units.TridentMaxOrder} {
		other := units.StockMaxOrder + units.TridentMaxOrder - first
		a := newAlloc(t, 2, first)
		for _, step := range []struct {
			gb       uint64
			maxOrder int
		}{{1, other}, {4, other}, {2, first}, {3, first}} {
			if step.gb < a.mem.Bytes()/units.Page1G {
				top := a.mem.Frames() - 1<<units.Order2M
				if err := a.AllocSpecific(top, units.Order2M, false); err != nil {
					t.Fatal(err)
				}
				a.Free(top, units.Order2M)
			}
			a.mem.Reset()
			a.Reset()
			for o := range a.free {
				w := a.free[o].words
				for i, tail := 0, w[len(w):cap(w)]; i < len(tail); i++ {
					tail[i] = ^uint64(0)
				}
			}
			a.mem.Boot(step.gb * units.Page1G)
			a.Boot(step.maxOrder)
			want := New(phys.NewMemory(step.gb*units.Page1G), step.maxOrder)
			if !reflect.DeepEqual(a, want) {
				t.Fatalf("max order %d, then booted at %dGB, max order %d: differs from New", first, step.gb, step.maxOrder)
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("max order %d, then booted at %dGB, max order %d: %v", first, step.gb, step.maxOrder, err)
			}
		}
	}
}

// TestCheckInvariantsAfterGrow: an audit after a grow reads the grown
// memory's bitmaps, and the chunks the grow added pass it.
func TestCheckInvariantsAfterGrow(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	a.mem.Boot(3 * units.Page1G)
	a.Boot(units.TridentMaxOrder)
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
