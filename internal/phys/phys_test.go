package phys

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/xrand"
)

func newTestMem(t *testing.T, gb uint64) *Memory {
	t.Helper()
	return NewMemory(gb * units.Page1G)
}

func TestNewMemoryValidation(t *testing.T) {
	for _, bad := range []uint64{0, units.Page2M, units.Page1G + units.Page4K} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMemory(%d) did not panic", bad)
				}
			}()
			NewMemory(bad)
		}()
	}
}

func TestGeometry(t *testing.T) {
	m := newTestMem(t, 2)
	if m.Bytes() != 2*units.Page1G {
		t.Errorf("Bytes = %d", m.Bytes())
	}
	if m.Frames() != 2*units.FramesPerRegion {
		t.Errorf("Frames = %d", m.Frames())
	}
	if m.NumRegions() != 2 {
		t.Errorf("NumRegions = %d", m.NumRegions())
	}
	if m.FreeFrames() != m.Frames() {
		t.Error("fresh memory should be entirely free")
	}
	for r := uint64(0); r < m.NumRegions(); r++ {
		st := m.Region(r)
		if st.Free != units.FramesPerRegion || st.Unmovable != 0 {
			t.Errorf("region %d stats = %+v", r, st)
		}
	}
}

func TestMarkAllocatedUpdatesCounters(t *testing.T) {
	m := newTestMem(t, 2)
	m.MarkAllocated(10, 5, false)
	if m.AllocatedFrames() != 5 {
		t.Errorf("AllocatedFrames = %d", m.AllocatedFrames())
	}
	if got := m.Region(0).Free; got != units.FramesPerRegion-5 {
		t.Errorf("region free = %d", got)
	}
	if !m.IsAllocated(12) || m.IsAllocated(15) {
		t.Error("allocation bitmap wrong")
	}
	m.MarkFree(10, 5)
	if m.AllocatedFrames() != 0 || m.Region(0).Free != units.FramesPerRegion {
		t.Error("free did not restore counters")
	}
}

func TestUnmovableTracking(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 3, true)
	if m.UnmovableFrames() != 3 || m.Region(0).Unmovable != 3 {
		t.Error("unmovable counters wrong after alloc")
	}
	if !m.IsUnmovable(1) {
		t.Error("IsUnmovable(1) = false")
	}
	m.MarkFree(0, 3)
	if m.UnmovableFrames() != 0 || m.Region(0).Unmovable != 0 {
		t.Error("unmovable counters wrong after free")
	}
	if m.IsUnmovable(1) {
		t.Error("unmovable bit not cleared")
	}
}

func TestCrossRegionAllocation(t *testing.T) {
	m := newTestMem(t, 2)
	// Straddle the region boundary.
	start := uint64(units.FramesPerRegion - 2)
	m.MarkAllocated(start, 4, false)
	if m.Region(0).Free != units.FramesPerRegion-2 {
		t.Errorf("region 0 free = %d", m.Region(0).Free)
	}
	if m.Region(1).Free != units.FramesPerRegion-2 {
		t.Errorf("region 1 free = %d", m.Region(1).Free)
	}
}

func TestDoubleAllocPanics(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 1, false)
	defer func() {
		if recover() == nil {
			t.Error("double allocation did not panic")
		}
	}()
	m.MarkAllocated(0, 1, false)
}

func TestDoubleFreePanics(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 1, false)
	m.MarkFree(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	m.MarkFree(0, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	m := newTestMem(t, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range did not panic")
		}
	}()
	m.MarkAllocated(m.Frames()-1, 2, false)
}

func TestOwnerRoundtrip(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 512, false)
	o := Owner{Space: 7, VA: 0x40000000, Size: units.Size2M}
	m.SetOwner(0, o)

	got, head, ok := m.OwnerOf(0)
	if !ok || head != 0 || got != o {
		t.Fatalf("OwnerOf(head) = %+v, %d, %v", got, head, ok)
	}
	// Interior frame of the 2MB page resolves to the same owner.
	got, head, ok = m.OwnerOf(300)
	if !ok || head != 0 || got != o {
		t.Fatalf("OwnerOf(interior) = %+v, %d, %v", got, head, ok)
	}
	m.ClearOwner(0)
	if _, _, ok := m.OwnerOf(300); ok {
		t.Error("owner still resolvable after ClearOwner")
	}
}

func TestOwnerOf1G(t *testing.T) {
	m := newTestMem(t, 2)
	frames := units.Size1G.Frames()
	m.MarkAllocated(frames, frames, false) // second region
	o := Owner{Space: 3, VA: 0, Size: units.Size1G}
	m.SetOwner(frames, o)
	got, head, ok := m.OwnerOf(frames + 123456)
	if !ok || head != frames || got != o {
		t.Fatalf("OwnerOf = %+v, %d, %v", got, head, ok)
	}
}

func TestOwnerClearedOnFree(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(4, 1, false)
	m.SetOwner(4, Owner{Space: 1, VA: 0x1000, Size: units.Size4K})
	m.MarkFree(4, 1)
	m.MarkAllocated(4, 1, false)
	if _, _, ok := m.OwnerOf(4); ok {
		t.Error("stale owner survived free/realloc")
	}
}

func TestOwner4KNoFalsePositive(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 1, false)
	m.SetOwner(0, Owner{Space: 1, VA: 0x1000, Size: units.Size4K})
	// Frame 1 is 2MB-interior to frame 0's alignment block, but the owner at
	// frame 0 is a 4KB mapping, so frame 1 must not resolve to it.
	if _, _, ok := m.OwnerOf(1); ok {
		t.Error("4KB owner leaked to neighbouring frame")
	}
}

func TestSetOwnerValidation(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 512, false)
	cases := []func(){
		func() { m.SetOwner(0, Owner{Space: 0, Size: units.Size4K}) },   // reserved space
		func() { m.SetOwner(1, Owner{Space: 1, Size: units.Size2M}) },   // misaligned
		func() { m.SetOwner(513, Owner{Space: 1, Size: units.Size4K}) }, // free frame
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
	m.SetOwner(0, Owner{Space: 1, Size: units.Size2M})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate SetOwner did not panic")
			}
		}()
		m.SetOwner(0, Owner{Space: 2, Size: units.Size2M})
	}()
}

// TestLeafReuse: a block's leaf returns to the free list when its last
// 4KB owner goes, and the next block to head 4KB pages takes it back, so
// churn neither grows the reverse map nor allocates.
func TestLeafReuse(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(0, 2*blockFrames, false)
	m.SetOwners4K(0, 100, Owner{Space: 1, Size: units.Size4K})
	l := m.leaves[0]
	for i := uint64(0); i < 100; i++ {
		m.ClearOwner(i)
	}
	if m.leaves[0] != nil || len(m.leafFree) != 1 || m.leafFree[0] != l {
		t.Fatal("emptied leaf was not released to the free list")
	}
	slab := len(m.slab)
	for i := uint64(0); i < 100; i++ {
		m.SetOwner(blockFrames+i, Owner{Space: 2, VA: i * units.Page4K, Size: units.Size4K})
	}
	if m.leaves[1] != l || len(m.leafFree) != 0 || len(m.slab) != slab {
		t.Error("a new leaf was carved despite a free one")
	}
	for i, w := range l {
		if (w != 0) != (i < 100) {
			t.Fatalf("reused leaf word %d = %#x", i, w)
		}
	}
}

func TestAllocatedInRange(t *testing.T) {
	m := newTestMem(t, 1)
	m.MarkAllocated(10, 4, false)
	m.MarkAllocated(20, 2, false)
	if got := m.AllocatedInRange(0, 30); got != 6 {
		t.Errorf("AllocatedInRange = %d, want 6", got)
	}
}

// Property: region counters always equal a direct recount of the bitmaps.
func TestRegionCounterConsistency(t *testing.T) {
	m := newTestMem(t, 2)
	rng := xrand.New(42)
	type alloc struct {
		pfn, count uint64
	}
	var live []alloc
	reconcile := func() bool {
		for r := uint64(0); r < m.NumRegions(); r++ {
			var free, unmov uint64
			base := r * units.FramesPerRegion
			for f := base; f < base+units.FramesPerRegion; f++ {
				if !m.IsAllocated(f) {
					free++
				}
				if m.IsUnmovable(f) {
					unmov++
				}
			}
			st := m.Region(r)
			if st.Free != free || st.Unmovable != unmov {
				return false
			}
		}
		return true
	}
	for step := 0; step < 200; step++ {
		if rng.Bool(0.6) || len(live) == 0 {
			pfn := rng.Uint64n(m.Frames() - 64)
			count := rng.Uint64n(8) + 1
			ok := true
			for f := pfn; f < pfn+count; f++ {
				if m.IsAllocated(f) {
					ok = false
					break
				}
			}
			if ok {
				m.MarkAllocated(pfn, count, rng.Bool(0.2))
				live = append(live, alloc{pfn, count})
			}
		} else {
			i := rng.Intn(len(live))
			a := live[i]
			m.MarkFree(a.pfn, a.count)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if !reconcile() {
		t.Fatal("region counters diverged from bitmap recount")
	}
}

func TestBitsetQuick(t *testing.T) {
	f := func(indices []uint16) bool {
		b := make(bitset, 1<<16/64)
		set := map[uint64]bool{}
		for _, i := range indices {
			if !set[uint64(i)] {
				b.setRange(uint64(i), 1, "set")
				set[uint64(i)] = true
			}
		}
		for i := uint64(0); i < 1<<16; i++ {
			if b.get(i) != set[i] {
				return false
			}
		}
		return b.countRange(0, 1<<16) == uint64(len(set))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBootMatchesNewMemory: a Reset memory booted at another size must be
// indistinguishable from a freshly created one of that size — shrunk,
// grown beyond its capacity, and grown back within it. The regions,
// bitset words and reverse-map blocks a grow exposes are poisoned first:
// Boot initializes them rather than trusting what the spare capacity
// holds.
func TestBootMatchesNewMemory(t *testing.T) {
	m := newTestMem(t, 2)
	for _, gb := range []uint64{1, 4, 2, 3} {
		m.MarkAllocated(0, 64, true)
		m.SetOwner(0, Owner{Space: 1, VA: 0, Size: units.Size4K})
		m.Reset()
		for _, tail := range [][]uint64{m.allocated[len(m.allocated):cap(m.allocated)], m.unmovable[len(m.unmovable):cap(m.unmovable)], m.heads[len(m.heads):cap(m.heads)]} {
			for i := range tail {
				tail[i] = ^uint64(0)
			}
		}
		for i, tail := 0, m.regions[len(m.regions):cap(m.regions)]; i < len(tail); i++ {
			tail[i] = RegionStats{Zeroed: true}
		}
		for i, tail := 0, m.live[len(m.live):cap(m.live)]; i < len(tail); i++ {
			tail[i] = blockFrames
		}
		m.Boot(gb * units.Page1G)
		want := NewMemory(gb * units.Page1G)
		// The one leaf written above is kept, cleared, for reuse.
		want.leafFree, want.slab = m.leafFree, m.slab
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("booted at %dGB: differs from NewMemory", gb)
		}
	}
}
