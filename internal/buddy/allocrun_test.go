package buddy

import (
	"slices"
	"testing"

	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

// FuzzAllocRunEquivalence checks AllocRun against its definition, repeated
// Alloc(0, false): on two allocators brought to the same fragmented state,
// one takes want frames through AllocRun calls of drawn sizes and the other
// through single-frame Allocs, both stopping at the first failure. Both
// consult a FailAlloc hook that fails drawn consults, so the test also pins
// that AllocRun consults it once per frame, before taking the frame. The
// frames handed out, the consult count, the failure, the free lists and the
// physical-memory bookkeeping must all agree.
func FuzzAllocRunEquivalence(f *testing.F) {
	f.Add(true, uint64(1), uint16(100), uint16(600), uint8(0), uint8(16))
	f.Add(false, uint64(2), uint16(400), uint16(3000), uint8(3), uint8(200))
	f.Add(true, uint64(3), uint16(0), uint16(20000), uint8(0), uint8(255))
	f.Add(false, uint64(4), uint16(2000), uint16(513), uint8(40), uint8(1))
	f.Add(true, uint64(5), uint16(1500), uint16(9), uint8(255), uint8(64))
	f.Fuzz(func(t *testing.T, trident bool, seed uint64, churn, want uint16, failEvery, maxRun uint8) {
		maxOrder := units.StockMaxOrder
		if trident {
			maxOrder = units.TridentMaxOrder
		}
		var as [2]*Allocator
		for i := range as {
			a := New(phys.NewMemory(units.Page1G), maxOrder)
			// Hold all but 64MB (16384 frames), so a large want can
			// exhaust memory.
			for o := maxOrder; o >= 0; o-- {
				for a.FreeFrames() >= 16384+uint64(1)<<uint(o) {
					if _, err := a.Alloc(o, false); err != nil {
						t.Fatal(err)
					}
				}
			}
			rng := xrand.New(seed)
			var held []uint64
			for op := 0; op < int(churn); op++ {
				if len(held) > 0 && rng.Bool(0.4) {
					j := rng.Intn(len(held))
					a.Free(held[j], 0)
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
					continue
				}
				order := rng.Intn(4)
				pfn, err := a.Alloc(order, false)
				if err != nil {
					continue
				}
				for f := uint64(1); f < uint64(1)<<uint(order); f++ {
					a.Free(pfn+f, 0)
				}
				held = append(held, pfn)
			}
			as[i] = a
		}
		consults := [2]int{}
		for i, a := range as {
			i := i
			a.FailAlloc = func(order int) bool {
				if order != 0 {
					t.Fatalf("FailAlloc consulted for order %d", order)
				}
				consults[i]++
				return failEvery != 0 && consults[i]%int(failEvery) == 0
			}
		}

		var got, ref []uint64
		var gotErr, refErr error
		rng := xrand.New(seed + 1)
		for uint64(len(got)) < uint64(want) {
			max := min(uint64(want)-uint64(len(got)), 1+rng.Uint64n(uint64(maxRun)+1))
			pfn, n, err := as[0].AllocRun(max)
			if n > max {
				t.Fatalf("AllocRun(%d) handed out %d frames", max, n)
			}
			for j := uint64(0); j < n; j++ {
				got = append(got, pfn+j)
			}
			if err != nil {
				gotErr = err
				break
			}
			if n == 0 {
				t.Fatalf("AllocRun(%d) handed out nothing without an error", max)
			}
		}
		for uint64(len(ref)) < uint64(want) {
			pfn, err := as[1].Alloc(0, false)
			if err != nil {
				refErr = err
				break
			}
			ref = append(ref, pfn)
		}

		if !slices.Equal(got, ref) {
			t.Fatalf("AllocRun frames %v,\nAlloc(0) frames %v", got, ref)
		}
		if gotErr != refErr || consults[0] != consults[1] {
			t.Fatalf("AllocRun: err %v after %d consults; Alloc(0): err %v after %d", gotErr, consults[0], refErr, consults[1])
		}
		for _, a := range as {
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		for ord := 0; ord <= maxOrder; ord++ {
			if g, w := as[0].FreeChunkHeads(ord), as[1].FreeChunkHeads(ord); !slices.Equal(g, w) {
				t.Fatalf("order-%d free chunks: got %v, want %v", ord, g, w)
			}
		}
		gm, rm := as[0].Memory(), as[1].Memory()
		if gm.FreeFrames() != rm.FreeFrames() || gm.Region(0) != rm.Region(0) || gm.UnmovableFrames() != 0 {
			t.Fatalf("region %+v, %d free; want %+v, %d free, none unmovable",
				gm.Region(0), gm.FreeFrames(), rm.Region(0), rm.FreeFrames())
		}
		for pfn := uint64(0); pfn < gm.Frames(); pfn++ {
			if gm.IsAllocated(pfn) != rm.IsAllocated(pfn) {
				t.Fatalf("frame %d allocated=%v, want %v", pfn, gm.IsAllocated(pfn), rm.IsAllocated(pfn))
			}
		}
	})
}

func TestAllocRunZero(t *testing.T) {
	a := newAlloc(t, 1, units.TridentMaxOrder)
	a.FailAlloc = func(int) bool {
		t.Fatal("AllocRun(0) consulted FailAlloc")
		return true
	}
	if pfn, n, err := a.AllocRun(0); pfn != 0 || n != 0 || err != nil {
		t.Fatalf("AllocRun(0) = %d, %d, %v", pfn, n, err)
	}
}
