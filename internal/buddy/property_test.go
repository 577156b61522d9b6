package buddy

import (
	"testing"
	"testing/quick"

	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

// Property: for any random operation sequence, the allocator never hands
// out overlapping chunks, total free frames are conserved, and freeing
// everything restores full coalescing.
func TestQuickRandomOperations(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(phys.NewMemory(units.Page1G), units.TridentMaxOrder)
		rng := xrand.New(seed)
		type chunk struct {
			pfn   uint64
			order int
		}
		var live []chunk
		owned := make(map[uint64]bool)
		for step := 0; step < 500; step++ {
			if rng.Bool(0.55) || len(live) == 0 {
				order := rng.Intn(12)
				pfn, err := a.Alloc(order, rng.Bool(0.1))
				if err != nil {
					continue
				}
				for f := pfn; f < pfn+(uint64(1)<<uint(order)); f++ {
					if owned[f] {
						return false // overlap!
					}
					owned[f] = true
				}
				live = append(live, chunk{pfn, order})
			} else {
				i := rng.Intn(len(live))
				c := live[i]
				a.Free(c.pfn, c.order)
				for f := c.pfn; f < c.pfn+(uint64(1)<<uint(c.order)); f++ {
					delete(owned, f)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			// Conservation: free + allocated == total.
			if a.mem.FreeFrames()+uint64(len(owned)) != a.mem.Frames() {
				return false
			}
		}
		for _, c := range live {
			a.Free(c.pfn, c.order)
		}
		return a.FreeChunks(units.Order1G) == 1 && a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: AllocSpecific(pfn) succeeds exactly when the chunk is free, and
// after success the frames are allocated.
func TestQuickAllocSpecific(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(phys.NewMemory(units.Page1G), units.TridentMaxOrder)
		rng := xrand.New(seed)
		for step := 0; step < 200; step++ {
			order := rng.Intn(10)
			frames := uint64(1) << uint(order)
			pfn := rng.Uint64n(a.mem.Frames()/frames) * frames
			wasFree := a.mem.AllocatedInRange(pfn, frames) == 0
			err := a.AllocSpecific(pfn, order, false)
			if wasFree != (err == nil) {
				return false
			}
			if err == nil && a.mem.AllocatedInRange(pfn, frames) != frames {
				return false
			}
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Property: FMFI is always within [0, 1] and rises (or stays equal) as
// allocation splits large chunks.
func TestQuickFMFIBounds(t *testing.T) {
	a := New(phys.NewMemory(units.Page1G), units.TridentMaxOrder)
	rng := xrand.New(3)
	prev := a.FMFI(units.Order2M)
	if prev != 0 {
		t.Fatalf("fresh FMFI = %v", prev)
	}
	for i := 0; i < 2000; i++ {
		// Allocate a random 4KB page somewhere specific to create holes.
		pfn := rng.Uint64n(a.mem.Frames())
		if a.mem.IsAllocated(pfn) {
			continue
		}
		if err := a.AllocSpecific(pfn, 0, false); err != nil {
			continue
		}
		fm := a.FMFI(units.Order2M)
		if fm < 0 || fm > 1 {
			t.Fatalf("FMFI out of bounds: %v", fm)
		}
	}
}
