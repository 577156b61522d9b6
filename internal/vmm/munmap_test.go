package vmm

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/units"
)

// munmapRebuild is MUnmap's definition, the way MUnmap computed it before
// it edited the list in place: check that [va, va+size) is wholly covered,
// then rebuild the list from what lies outside the range.
func munmapRebuild(vmas []VMA, va, size uint64) ([]VMA, error) {
	if size == 0 || size%units.Page4K != 0 || va%units.Page4K != 0 {
		return vmas, fmt.Errorf("vmm: bad munmap va=%#x size=%d", va, size)
	}
	end := va + size
	covered := uint64(0)
	for _, v := range vmas {
		lo, hi := max(v.Start, va), min(v.End, end)
		if lo < hi {
			covered += hi - lo
		}
	}
	if covered != size {
		return vmas, ErrBadUnmap
	}
	var out []VMA
	for _, v := range vmas {
		if v.End <= va || v.Start >= end {
			out = append(out, v)
			continue
		}
		if v.Start < va {
			out = append(out, VMA{v.Start, va, v.Kind})
		}
		if v.End > end {
			out = append(out, VMA{end, v.End, v.Kind})
		}
	}
	return out, nil
}

// FuzzMUnmapEquivalence drives random MMap, MMapFixed and MUnmap sequences
// and checks every MUnmap against munmapRebuild on the same list: the
// error, then the list it leaves. Each op is four bytes. Unmaps mostly
// start inside a VMA and may run past its end, into a hole (ErrBadUnmap)
// or an adjacent VMA of the other kind (a stack mapped fixed next to an
// anon area, which does not merge). After each op, FindVMA, which starts
// from the index of its previous hit, must agree with a scan of the list.
func FuzzMUnmapEquivalence(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 0, 9, 1, 0, 2, 0, 2, 3, 2, 0, 0, 4})
	f.Add([]byte{1, 4, 0, 0x83, 1, 8, 0, 2, 3, 0, 3, 9, 3, 1, 0, 30})
	f.Add([]byte{0, 15, 1, 0, 0, 1, 0, 0, 0, 2, 0, 0, 2, 1, 5, 3, 2, 0, 200, 31, 0, 7, 0, 0})
	f.Add([]byte{2, 0, 0, 1, 3, 255, 255, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		as := NewAddressSpace(1)
		for len(ops) >= 4 {
			op, a, b, c := ops[0], uint64(ops[1]), uint64(ops[2]), uint64(ops[3])
			ops = ops[4:]
			switch op % 4 {
			case 0:
				size := (a%16 + 1) * units.Page4K
				if b&1 != 0 {
					size *= 512
				}
				if _, err := as.MMap(size, KindAnon); err != nil {
					t.Fatal(err)
				}
			case 1:
				kind := KindAnon
				if c&0x80 != 0 {
					kind = KindStack
				}
				start := MmapBase + (a|b<<8)*units.Page4K
				_ = as.MMapFixed(start, (c%8+1)*units.Page4K, kind) // overlaps fail; both outcomes are fine
			default:
				var va uint64
				if n := uint64(len(as.vmas)); n > 0 && op%4 == 2 {
					v := as.vmas[a%n]
					va = v.Start + b%(v.Size()/units.Page4K)*units.Page4K
				} else {
					va = MmapBase + (a|b<<8)*units.Page4K
				}
				size := c % 32 * units.Page4K
				before := slices.Clone(as.vmas)
				want, wantErr := munmapRebuild(before, va, size)
				err := as.MUnmap(va, size)
				if (err == nil) != (wantErr == nil) || errors.Is(err, ErrBadUnmap) != errors.Is(wantErr, ErrBadUnmap) {
					t.Fatalf("MUnmap(%#x, %d) on %v: error %v, want %v", va, size, before, err, wantErr)
				}
				if !slices.Equal(as.vmas, want) {
					t.Fatalf("MUnmap(%#x, %d) on %v:\ngot  %v\nwant %v", va, size, before, as.vmas, want)
				}
			}
			for _, probe := range []uint64{MmapBase + (a|c<<8)*units.Page4K, MmapBase + b*units.Page2M} {
				got, ok := as.FindVMA(probe)
				i := slices.IndexFunc(as.vmas, func(v VMA) bool { return v.Start <= probe && probe < v.End })
				if ok != (i >= 0) || ok && got != as.vmas[i] {
					t.Fatalf("FindVMA(%#x) = %v, %v on %v", probe, got, ok, as.vmas)
				}
			}
		}
	})
}
