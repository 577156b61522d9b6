package buddy

import (
	"slices"
	"testing"

	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

// FuzzCarveEquivalence checks that Carve leaves the allocator and the
// physical-memory bookkeeping exactly as AllocSpecific(pfn, 0, false) on
// every frame the mask keeps would. The chunk is any order up to MaxOrder
// of either flavour, at any aligned position (so chunks below 64 frames
// sit at non-zero word offsets). The mask is decided block by block at a
// random granularity, so wholly free blocks of every order occur, and it
// holds random garbage outside the chunk, which Carve must ignore.
func FuzzCarveEquivalence(f *testing.F) {
	for o := 0; o <= units.TridentMaxOrder; o++ {
		f.Add(true, uint8(o), uint32(2*o+1), uint64(o), uint8(128))
	}
	for o := 0; o <= units.StockMaxOrder; o++ {
		f.Add(false, uint8(o), uint32(3*o+5), uint64(100+o), uint8(200))
	}
	f.Add(true, uint8(18), uint32(0), uint64(1), uint8(0))   // nothing stays free
	f.Add(true, uint8(18), uint32(0), uint64(2), uint8(255)) // everything stays free
	f.Add(false, uint8(3), uint32(7), uint64(3), uint8(255))
	f.Add(true, uint8(12), uint32(1), uint64(4), uint8(250))
	f.Fuzz(func(t *testing.T, trident bool, order uint8, slot uint32, seed uint64, density uint8) {
		maxOrder := units.StockMaxOrder
		if trident {
			maxOrder = units.TridentMaxOrder
		}
		o := int(order) % (maxOrder + 1)
		frames := uint64(units.Page1G / units.Page4K)
		n := uint64(1) << uint(o)
		head := uint64(slot) % (frames >> uint(o)) << uint(o)

		rng := xrand.New(seed)
		p := float64(density) / 255
		free := make([]uint64, frames/64)
		for i := range free {
			free[i] = rng.Uint64()
		}
		g := uint64(1) << uint(rng.Intn(o+1))
		for b := head; b < head+n; b += g {
			whole := rng.Bool(p)
			for pfn := b; pfn < b+g; pfn++ {
				if whole || rng.Bool(p) {
					free[pfn/64] |= 1 << (pfn % 64)
				} else {
					free[pfn/64] &^= 1 << (pfn % 64)
				}
			}
		}

		a := New(phys.NewMemory(units.Page1G), maxOrder)
		ref := New(phys.NewMemory(units.Page1G), maxOrder)
		for _, x := range []*Allocator{a, ref} {
			x.mem.SetRegionZeroed(0) // any allocation must clear it
			// Allocating a frame of the chunk's buddy frees exactly (head, o).
			if o < maxOrder {
				if err := x.AllocSpecific(head^n, 0, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		for pfn := head; pfn < head+n; pfn++ {
			if free[pfn/64]&(1<<(pfn%64)) == 0 {
				if err := ref.AllocSpecific(pfn, 0, false); err != nil {
					t.Fatalf("reference AllocSpecific(%d): %v", pfn, err)
				}
			}
		}
		a.Carve(head, o, free)

		for _, x := range []*Allocator{a, ref} {
			if err := x.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		for ord := 0; ord <= maxOrder; ord++ {
			if got, want := a.FreeChunkHeads(ord), ref.FreeChunkHeads(ord); !slices.Equal(got, want) {
				t.Fatalf("order-%d free chunks: got %v, want %v", ord, got, want)
			}
		}
		am, rm := a.mem, ref.mem
		if am.Region(0) != rm.Region(0) || am.FreeFrames() != rm.FreeFrames() || am.UnmovableFrames() != 0 {
			t.Fatalf("region %+v, %d free; want %+v, %d free, none unmovable",
				am.Region(0), am.FreeFrames(), rm.Region(0), rm.FreeFrames())
		}
		for pfn := uint64(0); pfn < frames; pfn++ {
			if am.IsAllocated(pfn) != rm.IsAllocated(pfn) {
				t.Fatalf("frame %d allocated=%v, want %v", pfn, am.IsAllocated(pfn), rm.IsAllocated(pfn))
			}
		}
	})
}

func TestCarveRequiresFreeChunk(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	free := make([]uint64, units.Page1G/units.Page4K/64)
	defer func() {
		if recover() == nil {
			t.Error("Carve of an order that is not the free chunk's did not panic")
		}
	}()
	a.Carve(0, units.Order2M, free)
}
