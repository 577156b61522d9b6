package buddy

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

// maximalFreeBlocks is the free lists' model: per order, the heads of the
// maximal aligned blocks of mem's free frames, that is the wholly free
// order-o blocks whose order-(o+1) parent is not wholly free (or o is
// maxOrder). It reads only mem's allocation bitmap, never the allocator.
func maximalFreeBlocks(mem *phys.Memory, maxOrder int) [][]uint64 {
	heads := make([][]uint64, maxOrder+1)
	var visit func(h uint64, o int)
	visit = func(h uint64, o int) {
		end := h + uint64(1)<<uint(o)
		if mem.NextAllocated(h, end) == end {
			heads[o] = append(heads[o], h)
			return
		}
		if _, ok := mem.PrevFree(h, end); !ok || o == 0 {
			return // wholly allocated
		}
		visit(h, o-1)
		visit(h+uint64(1)<<uint(o-1), o-1)
	}
	for h := uint64(0); h < mem.Frames(); h += uint64(1) << uint(maxOrder) {
		visit(h, maxOrder)
	}
	return heads
}

// span is a run of allocated frames [pfn, pfn+n) the fuzzer holds.
type span struct{ pfn, n uint64 }

// FuzzFreeListsMatchModel runs random sequences of every operation that
// edits the free lists — Alloc, AllocRun, AllocSpecific, AllocDown, Carve,
// Free, FreeBatch, and Reset followed by a Boot at another size or flavour
// — and after each one checks that the free lists are exactly the maximal
// aligned blocks of the free frames phys records: the state that buddy
// coalescing's confluence (DESIGN.md §5c) fixes whatever the history.
// Frees release any aligned block of held frames, not only whole chunks
// as allocated, so coalescing is reached from every granularity.
func FuzzFreeListsMatchModel(f *testing.F) {
	f.Add(uint64(1), uint8(120), true, false)
	f.Add(uint64(2), uint8(120), false, false)
	f.Add(uint64(3), uint8(200), true, true)
	f.Add(uint64(4), uint8(60), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, ops uint8, trident, twoGB bool) {
		flavour := func(trident bool) int {
			if trident {
				return units.TridentMaxOrder
			}
			return units.StockMaxOrder
		}
		gb := uint64(1)
		if twoGB {
			gb = 2
		}
		a := New(phys.NewMemory(gb*units.Page1G), flavour(trident))
		rng := xrand.New(seed)
		var held []span
		hold := func(pfn, n uint64) {
			if n > 0 {
				held = append(held, span{pfn, n})
			}
		}
		// release takes the largest aligned block at the head or the tail
		// of held[j] out of it and returns the block.
		release := func(j int, tail bool) (uint64, int) {
			s := &held[j]
			o := min(bits.Len64(s.n)-1, a.MaxOrder())
			at := s.pfn // the block starts here, or with tail ends here
			if tail {
				at += s.n
			}
			if at != 0 {
				o = min(o, bits.TrailingZeros64(at))
			}
			size := uint64(1) << uint(o)
			pfn := s.pfn
			if tail {
				pfn = at - size
			} else {
				s.pfn += size
			}
			if s.n -= size; s.n == 0 {
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			return pfn, o
		}
		for op := 0; op < int(ops); op++ {
			frames, maxOrder := a.mem.Frames(), a.MaxOrder()
			switch k := rng.Intn(16); {
			case k < 3: // Alloc
				o := rng.Intn(4)
				if rng.Bool(0.2) {
					o = rng.Intn(maxOrder + 1)
				}
				if pfn, err := a.Alloc(o, rng.Bool(0.1)); err == nil {
					hold(pfn, uint64(1)<<uint(o))
				}
			case k < 5: // AllocRun
				pfn, n, _ := a.AllocRun(1 + rng.Uint64n(700))
				hold(pfn, n)
			case k < 7: // AllocSpecific
				o := rng.Intn(maxOrder + 1)
				pfn := rng.Uint64n(frames) &^ (uint64(1)<<uint(o) - 1)
				if err := a.AllocSpecific(pfn, o, false); err == nil {
					hold(pfn, uint64(1)<<uint(o))
				}
			case k < 8: // AllocDown
				lo := rng.Uint64n(frames)
				hi := min(frames, lo+1+rng.Uint64n(4096))
				dst := make([]uint64, 1+rng.Intn(600))
				n, _ := a.AllocDown(lo, hi, dst)
				for _, pfn := range dst[:n] {
					hold(pfn, 1)
				}
			case k < 9: // Carve a free chunk, keeping a drawn share free
				o := rng.Intn(maxOrder + 1)
				heads := a.FreeChunkHeads(o)
				if len(heads) == 0 {
					continue
				}
				head, n := heads[rng.Intn(len(heads))], uint64(1)<<uint(o)
				mask := make([]uint64, frames/64)
				p, g := rng.Float64(), uint64(1)<<uint(rng.Intn(o+1))
				for b := head; b < head+n; b += g {
					if rng.Bool(p) {
						for pfn := b; pfn < b+g; pfn++ {
							mask[pfn/64] |= 1 << (pfn % 64)
						}
					}
				}
				a.Carve(head, o, mask)
				for pfn := head; pfn < head+n; {
					end := pfn
					for end < head+n && mask[end/64]&(1<<(end%64)) == 0 {
						end++
					}
					hold(pfn, end-pfn)
					pfn = end + 1
				}
			case k < 12: // Free one aligned block of a held span
				if len(held) == 0 {
					continue
				}
				a.Free(release(rng.Intn(len(held)), rng.Bool(0.5)))
			case k < 15: // FreeBatch several spans, whole or in part
				b := a.Batch()
				for i := rng.Intn(4); i >= 0 && len(held) > 0; i-- {
					j := rng.Intn(len(held))
					if rng.Bool(0.5) {
						b.Add(held[j].pfn, held[j].n)
						held[j] = held[len(held)-1]
						held = held[:len(held)-1]
						continue
					}
					pfn, o := release(j, false)
					b.Add(pfn, uint64(1)<<uint(o))
				}
				b.Flush()
			default: // Reset, then Boot at another size or flavour
				a.mem.Reset()
				a.Reset()
				a.mem.Boot((1 + rng.Uint64n(2)) * units.Page1G)
				a.Boot(flavour(rng.Bool(0.5)))
				held = held[:0]
			}
			want := maximalFreeBlocks(a.mem, a.MaxOrder())
			for o := range want {
				if got := a.FreeChunkHeads(o); !slices.Equal(got, want[o]) || a.FreeChunks(o) != uint64(len(want[o])) {
					t.Fatalf("op %d: order-%d free chunks %v (count %d), want the maximal free blocks %v",
						op, o, got, a.FreeChunks(o), want[o])
				}
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	})
}
