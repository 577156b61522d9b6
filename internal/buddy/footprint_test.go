package buddy

import (
	"testing"

	"repro/internal/phys"
	"repro/internal/units"
)

// TestFootprint pins what the allocator costs per frame of memory. Its
// only state is one free bitmap per order, a bit per 2^order frames, about
// two bits (0.25 B) per frame over all orders, however much of memory the
// run has touched. So a 64GB allocator whose every 2MB block was
// allocated and freed, and whose first GB went through 4KB allocations
// and frees, must hold at most 0.3 B per frame. The backing is summed
// from capacities, not read from runtime.MemStats, which the runtime's
// own background allocations perturb.
func TestFootprint(t *testing.T) {
	a := New(phys.NewMemory(64*units.Page1G), units.TridentMaxOrder)
	frames := a.mem.Frames()
	var held []uint64
	for pfn, err := a.Alloc(units.Order2M, false); err == nil; pfn, err = a.Alloc(units.Order2M, false) {
		held = append(held, pfn)
	}
	if uint64(len(held))<<units.Order2M != frames {
		t.Fatalf("allocated %d 2MB blocks of %d frames", len(held), frames)
	}
	for _, pfn := range held {
		a.Free(pfn, units.Order2M)
	}
	for pfn := uint64(0); pfn < units.Page1G/units.Page4K; pfn++ {
		if err := a.AllocSpecific(pfn, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for pfn := uint64(0); pfn < units.Page1G/units.Page4K; pfn++ {
		a.Free(pfn, 0)
	}
	if a.FreeChunks(units.Order1G) != 64 {
		t.Fatalf("%d free 1GB chunks after freeing everything, want 64", a.FreeChunks(units.Order1G))
	}
	if perFrame := float64(a.backingBytes()) / float64(frames); perFrame > 0.3 {
		t.Errorf("allocator holds %.3f B per frame at 64GB, want at most 0.3", perFrame)
	}
}
