package buddy

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

// TestAllocDownMatchesAllocSpecific checks AllocDown against its
// definition, AllocSpecific(f, 0, false) on each free frame f from hi-1
// down to lo until enough are claimed. Two allocators are brought to the
// same state: memory randomly allocated at a drawn density, in chunks of
// drawn orders, so free chunks of every size sit among allocated frames.
// Both then claim from drawn windows under a FailAlloc hook that fails
// every failEvery-th consult. The frames claimed, the scan positions, the
// consults, the free lists and the physical-memory bookkeeping must agree.
func TestAllocDownMatchesAllocSpecific(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		trident, failEvery := seed%2 == 0, int(seed%5)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			maxOrder := units.StockMaxOrder
			if trident {
				maxOrder = units.TridentMaxOrder
			}
			var as [2]*Allocator
			density := xrand.New(seed).Float64()
			for i := range as {
				a := New(phys.NewMemory(units.Page1G), maxOrder)
				rng := xrand.New(seed)
				rng.Float64()
				frames := a.mem.Frames()
				for f := uint64(0); f < frames; {
					o := rng.Intn(7)
					f = units.AlignUp(f, 1<<uint(o))
					if f+1<<uint(o) <= frames && rng.Bool(density) {
						if err := a.AllocSpecific(f, o, false); err != nil {
							t.Fatal(err)
						}
					}
					f += 1 << uint(o)
				}
				as[i] = a
			}
			var consults [2]int
			for i, a := range as {
				a.FailAlloc = func(int) bool {
					consults[i]++
					return failEvery != 0 && consults[i]%failEvery == 0
				}
			}
			windows := xrand.New(seed + 1)
			frames := as[0].mem.Frames()
			for range 20 {
				lo := windows.Uint64n(frames)
				hi := lo + windows.Uint64n(frames-lo+1)
				dst := make([]uint64, windows.Intn(3000))
				n, pos := as[0].AllocDown(lo, hi, dst)

				var ref []uint64
				refPos := hi
				for f := hi; f > lo && len(ref) < len(dst); f-- {
					if as[1].mem.IsAllocated(f - 1) {
						continue
					}
					if as[1].AllocSpecific(f-1, 0, false) == nil {
						ref = append(ref, f-1)
						refPos = f - 1
					}
				}
				if len(ref) < len(dst) {
					refPos = lo
				}
				if !slices.Equal(dst[:n], ref) || pos != refPos {
					t.Fatalf("AllocDown(%d, %d, %d) claimed %d frames and stopped at %d; per-frame claimed %d and stopped at %d",
						lo, hi, len(dst), n, pos, len(ref), refPos)
				}
			}
			if consults[0] != consults[1] {
				t.Fatalf("FailAlloc consulted %d times, per-frame %d", consults[0], consults[1])
			}
			for o := 0; o <= maxOrder; o++ {
				if g, w := as[0].FreeChunkHeads(o), as[1].FreeChunkHeads(o); !slices.Equal(g, w) {
					t.Fatalf("order-%d free chunks: %d, per-frame %d", o, len(g), len(w))
				}
			}
			gm, wm := as[0].mem, as[1].mem
			if gm.Region(0) != wm.Region(0) || gm.FreeFrames() != wm.FreeFrames() {
				t.Fatalf("region %+v, %d free; per-frame %+v, %d free", gm.Region(0), gm.FreeFrames(), wm.Region(0), wm.FreeFrames())
			}
			for _, a := range as {
				if err := a.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
