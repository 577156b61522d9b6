package tlb

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// refLRU is a trivially-correct reference model of one set-associative TLB:
// per set, a slice ordered MRU-first.
type refLRU struct {
	sets int
	ways int
	data [][]uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{sets: sets, ways: ways, data: make([][]uint64, sets)}
}

func (r *refLRU) lookup(tag uint64) bool {
	s := int(tag % uint64(r.sets))
	for i, v := range r.data[s] {
		if v == tag {
			r.data[s] = append([]uint64{tag}, append(r.data[s][:i], r.data[s][i+1:]...)...)
			return true
		}
	}
	return false
}

func (r *refLRU) insert(tag uint64) {
	if r.lookup(tag) {
		return
	}
	s := int(tag % uint64(r.sets))
	r.data[s] = append([]uint64{tag}, r.data[s]...)
	if len(r.data[s]) > r.ways {
		r.data[s] = r.data[s][:r.ways]
	}
}

func (r *refLRU) invalidate(tag uint64) {
	s := int(tag % uint64(r.sets))
	for i, v := range r.data[s] {
		if v == tag {
			r.data[s] = append(r.data[s][:i], r.data[s][i+1:]...)
			return
		}
	}
}

// Property: the TLB behaves exactly like the reference LRU model under any
// random operation sequence.
func TestTLBMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64, setsRaw, waysRaw uint8) bool {
		sets := 1 << (setsRaw % 4) // 1..8
		ways := int(waysRaw%4) + 1 // 1..4
		tlb := NewTLB(sets, ways)
		ref := newRefLRU(sets, ways)
		rng := xrand.New(seed)
		for op := 0; op < 500; op++ {
			tag := rng.Uint64n(64)
			switch rng.Intn(4) {
			case 0:
				if tlb.Lookup(tag) != ref.lookup(tag) {
					return false
				}
			case 1:
				tlb.Insert(tag)
				ref.insert(tag)
			case 2:
				tlb.Invalidate(tag)
				ref.invalidate(tag)
			case 3:
				if tlb.Probe(tag) != (func() bool {
					s := int(tag % uint64(sets))
					for _, v := range ref.data[s] {
						if v == tag {
							return true
						}
					}
					return false
				})() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzLRUInclusion checks the inclusion property of the true-LRU
// replacement behind Table 1's set-associative TLBs: with the set count
// fixed, a TLB with one more way holds everything the narrower one holds,
// so Lookup-then-Insert-on-miss never misses more as ways grow. Eight TLBs
// of 1..8 ways replay one tag sequence in lockstep: a hit at w ways must be
// a hit at w+1, and the miss counts must be non-increasing in w. With
// invalidate set, ops with the high bit drop their tag from every TLB
// alike, which keeps the property.
func FuzzLRUInclusion(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 4, 0, 2, 5, 0, 1}, uint8(0), false)
	f.Add([]byte{0, 4, 8, 12, 16, 0, 4, 20, 24, 0, 28, 8, 4}, uint8(2), false)
	f.Add([]byte{1, 3, 0x81, 1, 5, 3, 0x83, 7, 1, 3, 9, 0x85, 5}, uint8(1), true)
	f.Add([]byte{7, 6, 5, 4, 3, 2, 1, 0, 8, 0x80, 0, 1, 9, 2, 0x89, 10, 3, 7}, uint8(0), true)
	f.Add([]byte("a tag sequence with some locality: aaaa bbbb abab"), uint8(2), true)
	f.Fuzz(func(t *testing.T, ops []byte, setsRaw uint8, invalidate bool) {
		sets := 1 << (setsRaw % 3) // 1, 2 or 4
		var tlbs [8]*TLB
		var misses [len(tlbs)]int
		for w := range tlbs {
			tlbs[w] = NewTLB(sets, w+1)
		}
		for i, op := range ops {
			tag := uint64(op & 0x1f)
			if invalidate && op&0x80 != 0 {
				for _, tl := range tlbs {
					tl.Invalidate(tag)
				}
				continue
			}
			var hit [len(tlbs)]bool
			for w, tl := range tlbs {
				if hit[w] = tl.Lookup(tag); !hit[w] {
					misses[w]++
					tl.Insert(tag)
				}
			}
			for w := 1; w < len(tlbs); w++ {
				if hit[w-1] && !hit[w] {
					t.Fatalf("op %d (tag %d, %d sets): hit with %d ways, miss with %d", i, tag, sets, w, w+1)
				}
			}
		}
		for w := 1; w < len(tlbs); w++ {
			if misses[w] > misses[w-1] {
				t.Fatalf("%d sets: %d misses with %d ways, %d with %d", sets, misses[w-1], w, misses[w], w+1)
			}
		}
	})
}
