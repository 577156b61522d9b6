package pagetable

import (
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

func TestWalkAccesses(t *testing.T) {
	if WalkAccesses(units.Size4K) != 4 {
		t.Errorf("4KB walk = %d, want 4", WalkAccesses(units.Size4K))
	}
	if WalkAccesses(units.Size2M) != 3 {
		t.Errorf("2MB walk = %d, want 3", WalkAccesses(units.Size2M))
	}
	if WalkAccesses(units.Size1G) != 2 {
		t.Errorf("1GB walk = %d, want 2", WalkAccesses(units.Size1G))
	}
}

// NestedWalkAccesses must reproduce the paper's §2 numbers: 24, 15, 8.
func TestNestedWalkAccesses(t *testing.T) {
	cases := []struct {
		g, h units.PageSize
		want int
	}{
		{units.Size4K, units.Size4K, 24},
		{units.Size2M, units.Size2M, 15},
		{units.Size1G, units.Size1G, 8},
	}
	for _, c := range cases {
		if got := NestedWalkAccesses(c.g, c.h); got != c.want {
			t.Errorf("nested %v+%v = %d, want %d", c.g, c.h, got, c.want)
		}
	}
}

func TestMapLookupAllSizes(t *testing.T) {
	for _, size := range []units.PageSize{units.Size4K, units.Size2M, units.Size1G} {
		pt := New()
		va := 3 * size.Bytes()
		pfn := uint64(512 * 512) // 1GB-aligned frame
		if err := pt.Map(va, pfn, size); err != nil {
			t.Fatalf("%v: Map: %v", size, err)
		}
		m, ok := pt.Lookup(va + size.Bytes()/2)
		if !ok {
			t.Fatalf("%v: Lookup failed", size)
		}
		if m.VA != va || m.PFN != pfn || m.Size != size {
			t.Errorf("%v: mapping = %+v", size, m)
		}
		if m.Accessed {
			t.Errorf("%v: Lookup must not set accessed", size)
		}
		if got := pt.MappedBytes(size); got != size.Bytes() {
			t.Errorf("%v: MappedBytes = %d", size, got)
		}
		if got := pt.MappedPages(size); got != 1 {
			t.Errorf("%v: MappedPages = %d", size, got)
		}
	}
}

func TestTranslateSetsBits(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 100, units.Size4K); err != nil {
		t.Fatal(err)
	}
	pa, m, ok := pt.Translate(0x200123, false)
	if !ok {
		t.Fatal("Translate failed")
	}
	if pa != units.FrameAddr(100)+0x123 {
		t.Errorf("pa = %#x", pa)
	}
	if !m.Accessed || m.Dirty {
		t.Errorf("read translate bits: %+v", m)
	}
	_, m, _ = pt.Translate(0x200123, true)
	if !m.Dirty {
		t.Error("write translate did not set dirty")
	}
	// Lookup reflects persisted bits.
	m, _ = pt.Lookup(0x200000)
	if !m.Accessed || !m.Dirty {
		t.Errorf("persisted bits: %+v", m)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	pt := New()
	if _, _, ok := pt.Translate(0x1000, false); ok {
		t.Error("unmapped address translated")
	}
	if _, _, ok := pt.Translate(MaxVA+0x1000, false); ok {
		t.Error("non-canonical address translated")
	}
}

func TestMapValidation(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1001, 1, units.Size4K); err != ErrBadAddress {
		t.Errorf("misaligned map: %v", err)
	}
	if err := pt.Map(MaxVA, 1, units.Size4K); err != ErrBadAddress {
		t.Errorf("out-of-range map: %v", err)
	}
	if err := pt.Map(units.Page2M+units.Page4K, 1, units.Size2M); err != ErrBadAddress {
		t.Errorf("misaligned 2MB map: %v", err)
	}
}

func TestOverlapDetection(t *testing.T) {
	pt := New()
	if err := pt.Map(units.Page1G, 0, units.Size1G); err != nil {
		t.Fatal(err)
	}
	// 4KB inside the 1GB leaf.
	if err := pt.Map(units.Page1G+units.Page2M, 999, units.Size4K); err != ErrOverlap {
		t.Errorf("map under 1GB leaf: %v", err)
	}
	// 1GB over an existing 4KB.
	pt2 := New()
	if err := pt2.Map(units.Page1G+units.Page4K, 5, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(units.Page1G, 0, units.Size1G); err != ErrOverlap {
		t.Errorf("1GB over 4KB: %v", err)
	}
	// Exact duplicate.
	if err := pt2.Map(units.Page1G+units.Page4K, 6, units.Size4K); err != ErrOverlap {
		t.Errorf("duplicate map: %v", err)
	}
}

func TestUnmapRoundtrip(t *testing.T) {
	pt := New()
	if err := pt.Map(units.Page2M, 512, units.Size2M); err != nil {
		t.Fatal(err)
	}
	pfn, err := pt.Unmap(units.Page2M, units.Size2M)
	if err != nil || pfn != 512 {
		t.Fatalf("Unmap = %d, %v", pfn, err)
	}
	if _, ok := pt.Lookup(units.Page2M); ok {
		t.Error("still mapped after unmap")
	}
	if pt.TotalMappedBytes() != 0 {
		t.Error("mapped bytes not zero")
	}
	// Remapping at a different size must now work (tables reclaimed or not).
	if err := pt.Map(units.Page2M, 7, units.Size4K); err != nil {
		t.Errorf("remap after unmap: %v", err)
	}
}

func TestUnmapErrors(t *testing.T) {
	pt := New()
	if _, err := pt.Unmap(0x1000, units.Size4K); err != ErrNotMapped {
		t.Errorf("unmap missing: %v", err)
	}
	if err := pt.Map(0, 0, units.Size2M); err != nil {
		t.Fatal(err)
	}
	// Wrong size.
	if _, err := pt.Unmap(0, units.Size4K); err != ErrNotMapped {
		t.Errorf("unmap wrong size: %v", err)
	}
	if _, err := pt.Unmap(0, units.Size1G); err != ErrNotMapped {
		t.Errorf("unmap larger size: %v", err)
	}
}

func TestReplace(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 100, units.Size4K); err != nil {
		t.Fatal(err)
	}
	pt.Translate(0x200000, true) // set A+D
	if err := pt.Replace(0x200000, units.Size4K, 777); err != nil {
		t.Fatal(err)
	}
	m, _ := pt.Lookup(0x200000)
	if m.PFN != 777 {
		t.Errorf("PFN after replace = %d", m.PFN)
	}
	if !m.Accessed || !m.Dirty {
		t.Error("Replace lost flags")
	}
	if err := pt.Replace(0x300000, units.Size4K, 1); err != ErrNotMapped {
		t.Errorf("replace missing: %v", err)
	}
}

func TestForEachOrderAndBounds(t *testing.T) {
	pt := New()
	vas := []uint64{0x0, 0x200000, units.Page1G, units.Page1G + units.Page2M}
	sizes := []units.PageSize{units.Size4K, units.Size2M, units.Size2M, units.Size4K}
	pfn := uint64(0)
	for i, va := range vas {
		if err := pt.Map(va, pfn, sizes[i]); err != nil {
			t.Fatal(err)
		}
		pfn += sizes[i].Frames()
	}
	var got []uint64
	pt.ForEach(0, MaxVA, func(m Mapping) bool {
		got = append(got, m.VA)
		return true
	})
	if len(got) != 4 {
		t.Fatalf("ForEach visited %d mappings", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("ForEach not ascending: %v", got)
		}
	}
	// Bounded iteration.
	var bounded []uint64
	pt.ForEach(0x100000, units.Page1G, func(m Mapping) bool {
		bounded = append(bounded, m.VA)
		return true
	})
	if len(bounded) != 1 || bounded[0] != 0x200000 {
		t.Errorf("bounded ForEach = %v", bounded)
	}
	// Early stop.
	count := 0
	pt.ForEach(0, MaxVA, func(m Mapping) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestForEachIntersectsPartialHugePage(t *testing.T) {
	pt := New()
	if err := pt.Map(units.Page1G, 0, units.Size1G); err != nil {
		t.Fatal(err)
	}
	// Range strictly inside the 1GB page must still report it.
	found := false
	pt.ForEach(units.Page1G+units.Page2M, units.Page1G+2*units.Page2M, func(m Mapping) bool {
		found = true
		return true
	})
	if !found {
		t.Error("interior range missed covering 1GB mapping")
	}
}

func TestClearAccessed(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 10; i++ {
		if err := pt.Map(i*units.Page4K, i, units.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		pt.Translate(i*units.Page4K, false)
	}
	if got := pt.ClearAccessed(0, MaxVA); got != 5 {
		t.Errorf("ClearAccessed = %d, want 5", got)
	}
	if got := pt.ClearAccessed(0, MaxVA); got != 0 {
		t.Errorf("second ClearAccessed = %d, want 0", got)
	}
}

func TestDemote2M(t *testing.T) {
	pt := New()
	if err := pt.Map(units.Page2M, 512, units.Size2M); err != nil {
		t.Fatal(err)
	}
	pt.Translate(units.Page2M, true)
	if err := pt.Demote(units.Page2M); err != nil {
		t.Fatal(err)
	}
	if pt.MappedPages(units.Size4K) != 512 || pt.MappedPages(units.Size2M) != 0 {
		t.Errorf("after demote: 4K=%d 2M=%d",
			pt.MappedPages(units.Size4K), pt.MappedPages(units.Size2M))
	}
	// Every sub-page points at the right frame and inherited flags.
	m, ok := pt.Lookup(units.Page2M + 5*units.Page4K)
	if !ok || m.PFN != 517 {
		t.Fatalf("sub-mapping = %+v, %v", m, ok)
	}
	if !m.Accessed || !m.Dirty {
		t.Error("demote lost A/D flags")
	}
}

func TestDemote1G(t *testing.T) {
	pt := New()
	if err := pt.Map(0, 0, units.Size1G); err != nil {
		t.Fatal(err)
	}
	if err := pt.Demote(0); err != nil {
		t.Fatal(err)
	}
	if pt.MappedPages(units.Size2M) != 512 {
		t.Errorf("after 1G demote: 2M pages = %d", pt.MappedPages(units.Size2M))
	}
	m, ok := pt.Lookup(units.Page2M * 3)
	if !ok || m.PFN != 3*512 || m.Size != units.Size2M {
		t.Errorf("sub-mapping = %+v", m)
	}
}

func TestDemoteErrors(t *testing.T) {
	pt := New()
	if err := pt.Demote(0); err != ErrNotMapped {
		t.Errorf("demote unmapped: %v", err)
	}
	if err := pt.Map(0, 0, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := pt.Demote(0); err == nil {
		t.Error("demote of 4KB page succeeded")
	}
}

// Property test: map/unmap random non-overlapping pages; lookups always agree
// with a shadow model.
func TestRandomMapUnmapAgainstShadow(t *testing.T) {
	pt := New()
	rng := xrand.New(99)
	type entry struct {
		va   uint64
		pfn  uint64
		size units.PageSize
	}
	shadow := map[uint64]entry{} // keyed by va
	sizes := []units.PageSize{units.Size4K, units.Size2M, units.Size1G}
	for step := 0; step < 2000; step++ {
		size := sizes[rng.Intn(3)]
		slot := rng.Uint64n(64)
		va := slot * units.Page1G // 1GB-aligned slots avoid cross-size overlap bookkeeping
		if size != units.Size1G {
			va += rng.Uint64n(units.Page1G/size.Bytes()) * size.Bytes()
		}
		if rng.Bool(0.5) {
			e := entry{va, rng.Uint64n(1 << 20), size}
			err := pt.Map(va, e.pfn, size)
			overlaps := false
			for prevVA, prev := range shadow {
				if va < prevVA+prev.size.Bytes() && prevVA < va+size.Bytes() {
					overlaps = true
					break
				}
			}
			if overlaps {
				if err != ErrOverlap {
					t.Fatalf("step %d: expected overlap error, got %v", step, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: map failed: %v", step, err)
			} else {
				shadow[va] = e
			}
		} else if len(shadow) > 0 {
			for va, e := range shadow {
				if _, err := pt.Unmap(va, e.size); err != nil {
					t.Fatalf("step %d: unmap failed: %v", step, err)
				}
				delete(shadow, va)
				break
			}
		}
	}
	for va, e := range shadow {
		m, ok := pt.Lookup(va)
		if !ok || m.PFN != e.pfn || m.Size != e.size {
			t.Fatalf("shadow mismatch at %#x: %+v vs %+v", va, m, e)
		}
	}
	var count int
	pt.ForEach(0, MaxVA, func(Mapping) bool { count++; return true })
	if count != len(shadow) {
		t.Fatalf("ForEach count %d != shadow %d", count, len(shadow))
	}
}

func BenchmarkTranslate4K(b *testing.B) {
	pt := New()
	for i := uint64(0); i < 1024; i++ {
		if err := pt.Map(i*units.Page4K, i, units.Size4K); err != nil {
			b.Fatal(err)
		}
	}
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Translate(rng.Uint64n(1024)*units.Page4K, false)
	}
}

// MapRun must leave the walk cache exactly where per-page Map calls leave
// it: the kernel-level equivalence tests can only observe the cache
// through the first lookup after the run, which refreshes it.
func TestMapRunWalkCacheMatchesMap(t *testing.T) {
	const page = units.Page4K
	type cached struct {
		leafIdx              int
		leafLo, leafHi, pdLo uint64
		leafSize             units.PageSize
		entry                uint64
		pd                   bool
	}
	cacheOf := func(tb *Table) cached {
		c := cached{tb.wc.leafIdx, tb.wc.leafLo, tb.wc.leafHi, tb.wc.pdLo, tb.wc.leafSize, 0, tb.wc.pd != nil}
		if tb.wc.leaf != nil {
			c.entry = tb.wc.leaf.entries[tb.wc.leafIdx]
		}
		return c
	}
	for _, c := range []struct {
		va, n uint64
		pre   []Mapping
	}{
		{va: 5 * page, n: 3},
		{va: units.Page2M - 3*page, n: 1030},
		{va: units.Page1G - page, n: 2},
		{va: 9 * page, n: 20, pre: []Mapping{{VA: 15 * page, Size: units.Size4K}}},
		{va: units.Page2M - 4*page, n: 20, pre: []Mapping{{VA: units.Page2M, Size: units.Size2M}}},
		{va: 3 * page, n: 4, pre: []Mapping{{VA: 3 * page, Size: units.Size4K}}},
		{va: MaxVA - 2*page, n: 4},
	} {
		run, ref := New(), New()
		for _, tb := range []*Table{run, ref} {
			for _, m := range c.pre {
				if err := tb.Map(m.VA, 1, m.Size); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, errRun := run.MapRun(c.va, 100, c.n)
		var want uint64
		var errRef error
		for ; want < c.n; want++ {
			if errRef = ref.Map(c.va+want*page, 100+want, units.Size4K); errRef != nil {
				break
			}
		}
		if got != want || errRun != errRef {
			t.Fatalf("MapRun(%#x, %d) mapped %d (%v), Map loop %d (%v)", c.va, c.n, got, errRun, want, errRef)
		}
		if g, w := cacheOf(run), cacheOf(ref); g != w {
			t.Fatalf("MapRun(%#x, %d) walk cache %+v, Map loop %+v", c.va, c.n, g, w)
		}
	}
}

// TestUnmapped4KMatchesLookup checks Unmapped4K against its definition, a
// Lookup loop stopping at the first mapped page, for runs starting
// anywhere in 2MB windows that hold 4KB leaves, a 2MB leaf, a 1GB leaf or
// nothing, with the walk cache cold and warm.
func TestUnmapped4KMatchesLookup(t *testing.T) {
	const page = units.Page4K
	pt := New()
	rng := xrand.New(9)
	for i := 0; i < 300; i++ {
		va := units.Page1G + rng.Uint64n(8*512)*page // 4KB leaves in windows 0-7 of the second GB
		if !pt.Overlaps(va, units.Size4K) {
			if err := pt.Map(va, 1, units.Size4K); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pt.Map(units.Page1G+9*units.Page2M, 2, units.Size2M); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(3*units.Page1G, 3, units.Size1G); err != nil {
		t.Fatal(err)
	}
	for _, window := range []uint64{units.Page1G, units.Page1G + 3*units.Page2M, units.Page1G + 9*units.Page2M,
		units.Page1G + 20*units.Page2M, 3*units.Page1G + units.Page2M, 7 * units.Page1G} {
		for trial := 0; trial < 200; trial++ {
			off := rng.Uint64n(512)
			va := window + off*page
			count := rng.Uint64n(512 - off + 1)
			if trial%2 == 0 {
				pt.Lookup(window + rng.Uint64n(512)*page) // warm the walk cache somewhere in the window
			}
			var want uint64
			for want < count {
				if _, ok := pt.Lookup(va + want*page); ok {
					break
				}
				want++
			}
			if got := pt.Unmapped4K(va, count); got != want {
				t.Fatalf("Unmapped4K(%#x, %d) = %d, want %d", va, count, got, want)
			}
		}
	}
}
