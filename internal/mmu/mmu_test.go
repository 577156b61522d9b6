package mmu

import (
	"testing"

	"repro/internal/pagetable"
	"repro/internal/stream"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/xrand"
)

func TestTranslateMissThenHit(t *testing.T) {
	m := New(tlb.Skylake())
	pt := pagetable.New()
	if err := pt.Map(0, 7, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if !m.Translate(pt, 0x123, false) {
		t.Fatal("translate failed")
	}
	st := m.BySize[units.Size4K]
	if st.Accesses != 1 || st.Walks != 1 || st.WalkMemAccesses != 4 {
		t.Errorf("cold stats = %+v", st)
	}
	if !m.Translate(pt, 0x456, false) {
		t.Fatal("second translate failed")
	}
	st = m.BySize[units.Size4K]
	if st.Accesses != 2 || st.Walks != 1 {
		t.Errorf("warm stats = %+v", st)
	}
	// The walk set the accessed bit.
	if mp, _ := pt.Lookup(0); !mp.Accessed {
		t.Error("walk did not set accessed bit")
	}
}

func TestTranslateFault(t *testing.T) {
	m := New(tlb.Skylake())
	pt := pagetable.New()
	if m.Translate(pt, 0x1000, false) {
		t.Error("unmapped address translated")
	}
	if m.Faults != 1 {
		t.Errorf("faults = %d", m.Faults)
	}
}

func TestPWCShortensWalks(t *testing.T) {
	m := New(tlb.Skylake())
	pt := pagetable.New()
	// Two 4KB pages in the same 2MB range: second walk should cost 1 access.
	for i := uint64(0); i < 2; i++ {
		if err := pt.Map(i*units.Page4K, i, units.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	m.Translate(pt, 0, false)
	first := m.BySize[units.Size4K].WalkMemAccesses
	m.Translate(pt, units.Page4K, false)
	second := m.BySize[units.Size4K].WalkMemAccesses - first
	if first != 4 || second != 1 {
		t.Errorf("walk accesses = %d then %d, want 4 then 1", first, second)
	}
}

func TestNestedWalkCosts(t *testing.T) {
	cases := []struct {
		gs, hs units.PageSize
		want   uint64
	}{
		{units.Size4K, units.Size4K, 24},
		{units.Size2M, units.Size2M, 15},
		{units.Size1G, units.Size1G, 8},
	}
	for _, c := range cases {
		m := NewNested(tlb.Skylake())
		gpt, hpt := pagetable.New(), pagetable.New()
		if err := gpt.Map(0, 0, c.gs); err != nil { // gVA 0 → gPA 0
			t.Fatal(err)
		}
		if err := hpt.Map(0, 0, c.hs); err != nil { // gPA 0 → hPA 0
			t.Fatal(err)
		}
		if !m.TranslateNested(gpt, hpt, 0, false) {
			t.Fatalf("%v+%v: nested translate failed", c.gs, c.hs)
		}
		eff := c.gs
		st := m.BySize[eff]
		if st.WalkMemAccesses != c.want {
			t.Errorf("%v+%v: nested walk = %d accesses, want %d",
				c.gs, c.hs, st.WalkMemAccesses, c.want)
		}
	}
}

func TestNestedEffectiveSizeIsMin(t *testing.T) {
	m := NewNested(tlb.Skylake())
	gpt, hpt := pagetable.New(), pagetable.New()
	// Guest maps 1GB, host backs with 4KB pages.
	if err := gpt.Map(0, 0, units.Size1G); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := hpt.Map(i*units.Page4K, i, units.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	m.TranslateNested(gpt, hpt, 0, false)
	if m.BySize[units.Size4K].Accesses != 1 {
		t.Error("1GB-over-4KB not cached at 4KB effective size")
	}
	if m.BySize[units.Size1G].Accesses != 0 {
		t.Error("wrongly credited to 1GB TLB")
	}
	// Different 4KB sub-page → different combined translation → TLB miss.
	m.TranslateNested(gpt, hpt, units.Page4K, false)
	if m.BySize[units.Size4K].Walks != 2 {
		t.Errorf("walks = %d, want 2", m.BySize[units.Size4K].Walks)
	}
}

func TestNestedGuestFault(t *testing.T) {
	m := NewNested(tlb.Skylake())
	gpt, hpt := pagetable.New(), pagetable.New()
	if m.TranslateNested(gpt, hpt, 0, false) {
		t.Error("nested translate of unmapped gVA succeeded")
	}
	if m.Faults != 1 {
		t.Error("guest fault not counted")
	}
}

func TestNestedMissingHostMappingPanics(t *testing.T) {
	m := NewNested(tlb.Skylake())
	gpt, hpt := pagetable.New(), pagetable.New()
	if err := gpt.Map(0, 0, units.Size4K); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unbacked gPA")
		}
	}()
	m.TranslateNested(gpt, hpt, 0, false)
}

func TestFlushPage(t *testing.T) {
	m := New(tlb.Skylake())
	pt := pagetable.New()
	if err := pt.Map(0, 1, units.Size2M); err != nil {
		t.Fatal(err)
	}
	m.Translate(pt, 0, false)
	m.FlushPage(0, units.Size2M)
	m.Translate(pt, 0, false)
	if m.BySize[units.Size2M].Walks != 2 {
		t.Errorf("walks after flush = %d, want 2", m.BySize[units.Size2M].Walks)
	}
}

func TestResetStatsKeepsWarmth(t *testing.T) {
	m := New(tlb.Skylake())
	pt := pagetable.New()
	if err := pt.Map(0, 1, units.Size4K); err != nil {
		t.Fatal(err)
	}
	m.Translate(pt, 0, false)
	m.ResetStats()
	if m.Totals().Accesses != 0 {
		t.Error("stats not reset")
	}
	m.Translate(pt, 0, false)
	if m.BySize[units.Size4K].Walks != 0 {
		t.Error("ResetStats cleared TLB contents")
	}
}

// The paper's core effect, end to end: the same physical footprint accessed
// through 4KB, 2MB and 1GB mappings must show strictly decreasing walk
// overhead.
func TestWalkOverheadOrderingAcrossSizes(t *testing.T) {
	const footprint = 6 * units.GiB
	const accesses = 100000
	var walkAccesses [3]uint64
	for _, size := range []units.PageSize{units.Size4K, units.Size2M, units.Size1G} {
		m := New(tlb.Skylake())
		pt := pagetable.New()
		for va := uint64(0); va < footprint; va += size.Bytes() {
			if err := pt.Map(va, va/units.Page4K, size); err != nil {
				t.Fatal(err)
			}
		}
		rng := xrand.New(5)
		for i := 0; i < accesses; i++ {
			if !m.Translate(pt, rng.Uint64n(footprint), false) {
				t.Fatal("translate failed")
			}
		}
		walkAccesses[size] = m.Totals().WalkMemAccesses
	}
	if !(walkAccesses[units.Size4K] > walkAccesses[units.Size2M] &&
		walkAccesses[units.Size2M] > walkAccesses[units.Size1G]) {
		t.Errorf("walk ordering violated: 4K=%d 2M=%d 1G=%d",
			walkAccesses[units.Size4K], walkAccesses[units.Size2M], walkAccesses[units.Size1G])
	}
	// 1GB pages over 6GB fit in the 1GB TLBs: near-zero walks.
	if walkAccesses[units.Size1G] > 200 {
		t.Errorf("1GB walk accesses = %d, expected near zero", walkAccesses[units.Size1G])
	}
}

func BenchmarkTranslateWarm(b *testing.B) {
	m := New(tlb.Skylake())
	pt := pagetable.New()
	if err := pt.Map(0, 0, units.Size1G); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Translate(pt, rng.Uint64n(units.Page1G), false)
	}
}

// BenchmarkTranslateRuns measures the run-coalesced pipeline in its two
// régimes, with runs of 4 references (the shape the pipeline is built to
// exploit: one probe or walk per run, bulk counter adds for the rest).
// hit-heavy: 500 runs inside one 1GB page — after warmup, one MRU L1 hit
// plus one bulkHits add per run, all consumed by the L1 tag sweep.
// miss-heavy: a 4KB stride over four times the shared L2's reach — the lead
// reference of every run parks the sweep and walks, the remaining three
// take BulkL1Hits. Reported per 2000 expanded references (the sim loop's
// batch size).
func BenchmarkTranslateRuns(b *testing.B) {
	const nRuns, runLen = 500, 4 // 2000 references per op
	b.Run("hit-heavy", func(b *testing.B) {
		m := New(tlb.Skylake())
		pt := pagetable.New()
		if err := pt.Map(0, 0, units.Size1G); err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(1)
		runs := make([]stream.Run, nRuns)
		for i := range runs {
			runs[i] = stream.Run{Access: stream.Access{VA: rng.Uint64n(units.Page1G)}, Len: runLen}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if done := m.TranslateRuns(pt, nil, runs); done != len(runs) {
				b.Fatalf("runs faulted at %d", done)
			}
		}
	})
	b.Run("miss-heavy", func(b *testing.B) {
		m := New(tlb.Skylake())
		pt := pagetable.New()
		// 4× the 1536-entry shared L2's 4KB reach: every run's lead misses
		// all TLB levels and walks; its tail takes the bulk-hit path.
		const pages = 4 * 1536
		for i := uint64(0); i < pages; i++ {
			if err := pt.Map(i*units.Page4K, i, units.Size4K); err != nil {
				b.Fatal(err)
			}
		}
		runs := make([]stream.Run, nRuns)
		next := uint64(0)
		refill := func() {
			for i := range runs {
				runs[i] = stream.Run{Access: stream.Access{VA: next * units.Page4K}, Len: runLen}
				next = (next + 1) % pages
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refill()
			if done := m.TranslateRuns(pt, nil, runs); done != len(runs) {
				b.Fatalf("runs faulted at %d", done)
			}
		}
	})
}
