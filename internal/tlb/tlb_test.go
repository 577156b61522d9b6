package tlb

import (
	"slices"
	"testing"

	"repro/internal/units"
	"repro/internal/xrand"
)

func TestTLBBasicHitMiss(t *testing.T) {
	tl := NewTLB(4, 2)
	if tl.Lookup(1) {
		t.Error("empty TLB hit")
	}
	tl.Insert(1)
	if !tl.Lookup(1) {
		t.Error("inserted tag missed")
	}
}

func TestTLBGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTLB(0, 4)
}

func TestTLBLRUEviction(t *testing.T) {
	// 1 set, 2 ways: inserting 3 distinct tags must evict the LRU.
	tl := NewTLB(1, 2)
	tl.Insert(10)
	tl.Insert(20)
	tl.Lookup(10) // 10 becomes MRU
	tl.Insert(30) // evicts 20
	if !tl.Probe(10) {
		t.Error("MRU tag evicted")
	}
	if tl.Probe(20) {
		t.Error("LRU tag survived")
	}
	if !tl.Probe(30) {
		t.Error("new tag missing")
	}
}

func TestTLBSetIsolation(t *testing.T) {
	tl := NewTLB(4, 1)
	// Tags 0..3 land in distinct sets; none should evict another.
	for tag := uint64(0); tag < 4; tag++ {
		tl.Insert(tag)
	}
	for tag := uint64(0); tag < 4; tag++ {
		if !tl.Probe(tag) {
			t.Errorf("tag %d evicted despite distinct sets", tag)
		}
	}
}

func TestTLBInsertExistingPromotes(t *testing.T) {
	tl := NewTLB(1, 2)
	tl.Insert(1)
	tl.Insert(2)
	tl.Insert(1) // promote, not duplicate
	tl.Insert(3) // evicts 2
	if tl.Probe(2) || !tl.Probe(1) || !tl.Probe(3) {
		t.Error("re-insert did not promote")
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tl := NewTLB(2, 2)
	tl.Insert(1)
	tl.Insert(2)
	tl.Invalidate(1)
	if tl.Probe(1) {
		t.Error("invalidated tag still present")
	}
	if !tl.Probe(2) {
		t.Error("invalidate removed wrong tag")
	}
	tl.Flush()
	if tl.Probe(2) {
		t.Error("flush left entries")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	tl := NewTLB(1, 2)
	tl.Insert(1)
	tl.Insert(2) // order: 2 MRU, 1 LRU
	tl.Probe(1)  // must NOT promote
	tl.Insert(3) // evicts 1
	if tl.Probe(1) {
		t.Error("Probe perturbed LRU order")
	}
}

func TestSkylakeGeometry(t *testing.T) {
	cfg := Skylake()
	if n := cfg.L1[units.Size4K].Sets * cfg.L1[units.Size4K].Ways; n != 64 {
		t.Errorf("L1 4KB entries = %d", n)
	}
	if n := cfg.L1[units.Size2M].Sets * cfg.L1[units.Size2M].Ways; n != 32 {
		t.Errorf("L1 2MB entries = %d", n)
	}
	if n := cfg.L1[units.Size1G].Sets * cfg.L1[units.Size1G].Ways; n != 4 {
		t.Errorf("L1 1GB entries = %d", n)
	}
	if n := cfg.L2Shared.Sets * cfg.L2Shared.Ways; n != 1536 {
		t.Errorf("L2 shared entries = %d", n)
	}
	if n := cfg.L2Huge.Sets * cfg.L2Huge.Ways; n != 16 {
		t.Errorf("L2 1GB entries = %d", n)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(Skylake())
	va := uint64(123 * units.Page4K)
	if lvl := h.Access(va, units.Size4K); lvl != Miss {
		t.Errorf("cold access = %v", lvl)
	}
	if lvl := h.Access(va, units.Size4K); lvl != HitL1 {
		t.Errorf("warm access = %v", lvl)
	}
}

func TestHierarchyL2Refill(t *testing.T) {
	h := NewHierarchy(Skylake())
	// Touch 65 distinct pages mapping to enough sets to overflow the 64-entry
	// L1 but stay within the 1536-entry L2; re-touching the first page should
	// be at worst an L2 hit, never a walk.
	for i := uint64(0); i < 128; i++ {
		h.Access(i*units.Page4K, units.Size4K)
	}
	lvl := h.Access(0, units.Size4K)
	if lvl == Miss {
		t.Errorf("page evicted from 1536-entry L2 after only 128 pages")
	}
}

func TestHierarchy1GBCapacity(t *testing.T) {
	h := NewHierarchy(Skylake())
	// 20 distinct 1GB pages exceed the 4+16 entries: re-access of the oldest
	// must walk again; but 4 pages fit entirely in L1.
	for i := uint64(0); i < 4; i++ {
		h.Access(i*units.Page1G, units.Size1G)
	}
	for i := uint64(0); i < 4; i++ {
		if lvl := h.Access(i*units.Page1G, units.Size1G); lvl != HitL1 {
			t.Errorf("1GB page %d not in L1: %v", i, lvl)
		}
	}
	walks := 0
	for i := uint64(0); i < 64; i++ {
		if h.Access(i*units.Page1G, units.Size1G) == Miss {
			walks++
		}
	}
	if walks < 32 {
		t.Errorf("64 streaming 1GB pages caused only %d walks", walks)
	}
}

func TestSharedL2For4KAnd2M(t *testing.T) {
	h := NewHierarchy(Skylake())
	if h.l2[units.Size4K] != h.l2[units.Size2M] {
		t.Error("4KB and 2MB must share one L2 structure")
	}
	if h.l2[units.Size1G] == h.l2[units.Size4K] {
		t.Error("1GB must have its own L2 structure")
	}
}

func TestNoTagAliasingAcrossSizes(t *testing.T) {
	h := NewHierarchy(Skylake())
	// VA 0 as a 4KB page and VA 0 as a 2MB page are different translations;
	// inserting one must not hit for the other.
	h.Access(0, units.Size4K)
	if lvl := h.Access(0, units.Size2M); lvl != Miss {
		t.Errorf("2MB access aliased onto 4KB entry: %v", lvl)
	}
}

func TestInvalidatePage(t *testing.T) {
	h := NewHierarchy(Skylake())
	va := uint64(7 * units.Page2M)
	h.Access(va, units.Size2M)
	h.InvalidatePage(va, units.Size2M)
	if lvl := h.Access(va, units.Size2M); lvl != Miss {
		t.Errorf("access after invalidate = %v", lvl)
	}
}

func TestFlushAll(t *testing.T) {
	h := NewHierarchy(Skylake())
	h.Access(0, units.Size4K)
	h.Access(0, units.Size2M)
	h.Access(0, units.Size1G)
	h.FlushAll()
	for _, s := range []units.PageSize{units.Size4K, units.Size2M, units.Size1G} {
		if lvl := h.Access(0, s); lvl != Miss {
			t.Errorf("%v entry survived FlushAll", s)
		}
	}
}

// The central architectural property the paper exploits: a working set that
// thrashes the 2MB TLB fits easily in 1GB entries.
func TestReachAdvantageOf1GBPages(t *testing.T) {
	h := NewHierarchy(Skylake())
	rng := xrand.New(42)
	const footprint = 8 * units.GiB
	const accesses = 200000

	// With 2MB pages: 4096 pages >> 1536-entry L2 → mostly walks.
	walks2M := 0
	for i := 0; i < accesses; i++ {
		va := rng.Uint64n(footprint)
		if h.Access(va, units.Size2M) == Miss {
			walks2M++
		}
	}

	// With 1GB pages: 8 pages < 16-entry L2 → essentially no walks.
	walks1G := 0
	for i := 0; i < accesses; i++ {
		va := rng.Uint64n(footprint)
		if h.Access(va, units.Size1G) == Miss {
			walks1G++
		}
	}

	if walks2M < accesses/2 {
		t.Errorf("2MB walks = %d, expected thrashing (> %d)", walks2M, accesses/2)
	}
	if walks1G > 100 {
		t.Errorf("1GB walks = %d, expected near-zero", walks1G)
	}
}

func TestPWCWalkAccesses(t *testing.T) {
	p := NewPWC(Skylake())
	va := uint64(5 * units.Page1G)
	// Cold: full walks.
	if got := p.WalkAccesses(va, units.Size4K); got != 4 {
		t.Errorf("cold 4KB walk = %d", got)
	}
	// Same 2MB range: PDE cache hit → 1 access.
	if got := p.WalkAccesses(va+units.Page4K, units.Size4K); got != 1 {
		t.Errorf("warm 4KB walk = %d", got)
	}
	// Different 2MB range, same 1GB range: PDPTE hit → 2 accesses.
	if got := p.WalkAccesses(va+units.Page2M, units.Size4K); got != 2 {
		t.Errorf("PDPTE-hit 4KB walk = %d", got)
	}
	// Different 1GB range, same 512GB range: PML4E hit → 3 accesses.
	if got := p.WalkAccesses(va+units.Page1G, units.Size4K); got != 3 {
		t.Errorf("PML4E-hit 4KB walk = %d", got)
	}
}

func TestPWCWalkAccesses2MAnd1G(t *testing.T) {
	p := NewPWC(Skylake())
	if got := p.WalkAccesses(0, units.Size2M); got != 3 {
		t.Errorf("cold 2MB walk = %d", got)
	}
	// PDPTE now cached → 1 access.
	if got := p.WalkAccesses(units.Page2M, units.Size2M); got != 1 {
		t.Errorf("warm 2MB walk = %d", got)
	}
	p2 := NewPWC(Skylake())
	if got := p2.WalkAccesses(0, units.Size1G); got != 2 {
		t.Errorf("cold 1GB walk = %d", got)
	}
	if got := p2.WalkAccesses(units.Page1G, units.Size1G); got != 1 {
		t.Errorf("warm 1GB walk = %d", got)
	}
}

func TestPWCFlush(t *testing.T) {
	p := NewPWC(Skylake())
	p.WalkAccesses(0, units.Size4K)
	p.Flush()
	if got := p.WalkAccesses(units.Page4K, units.Size4K); got != 4 {
		t.Errorf("walk after flush = %d, want 4", got)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(Skylake())
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(rng.Uint64n(4*units.GiB), units.Size4K)
	}
}

// TestInvalidateRangeMatchesPerPage checks InvalidateRange against
// InvalidatePage on each page of the range: two hierarchies take the same
// random accesses of every size around the range, then one invalidates the
// range at once and the other page by page, and every structure's lines,
// live, size and signature counts must agree. Range lengths run from one
// page to past every structure's set count, so both the per-tag path and
// the one-pass path are taken, and ranges start off set boundaries.
func TestInvalidateRangeMatchesPerPage(t *testing.T) {
	rng := xrand.New(3)
	tiny := Config{
		L1:       [units.NumPageSizes]Geometry{{Sets: 4, Ways: 2}, {Sets: 2, Ways: 2}, {Sets: 1, Ways: 2}},
		L2Shared: Geometry{Sets: 8, Ways: 3},
		L2Huge:   Geometry{Sets: 2, Ways: 2},
		PWC:      Skylake().PWC,
	}
	for _, cfg := range []Config{Skylake(), tiny} {
		for _, n := range []uint64{1, 2, 3, 7, 8, 9, 16, 100, 127, 128, 129, 300, 512} {
			for s := units.PageSize(0); s < units.NumPageSizes; s++ {
				a, b := NewHierarchy(cfg), NewHierarchy(cfg)
				base := (16 + rng.Uint64n(64)) * s.Bytes()
				for i := 0; i < 4000; i++ {
					size := units.PageSize(rng.Uint64n(uint64(units.NumPageSizes)))
					va := units.Align(base, size.Bytes()) + (rng.Uint64n(n+20)-10)*size.Bytes()
					a.Access(va, size)
					b.Access(va, size)
				}
				a.InvalidateRange(base, n, s)
				for i := uint64(0); i < n; i++ {
					b.InvalidatePage(base+i*s.Bytes(), s)
				}
				for j, pair := range [][2]*TLB{
					{a.l1[0], b.l1[0]}, {a.l1[1], b.l1[1]}, {a.l1[2], b.l1[2]},
					{a.l2[units.Size4K], b.l2[units.Size4K]}, {a.l2[units.Size1G], b.l2[units.Size1G]},
				} {
					x, y := pair[0], pair[1]
					if !slices.Equal(x.lines, y.lines) || !slices.Equal(x.live, y.live) ||
						!slices.Equal(x.sigs, y.sigs) ||
						x.liveBySize != y.liveBySize {
						t.Fatalf("%dx%d structure %d after invalidating %d %v pages at %#x: range and per-page states differ",
							x.sets, x.ways, j, n, s, base)
					}
				}
			}
		}
	}
}
