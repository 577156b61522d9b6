package fragment

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/compact"
	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

// applyPerPage is Apply's reference: the §3 methodology replayed literally.
// It fills the page cache with one Alloc(0) + MapSpecific per free frame,
// then reclaims through the public, unmapping ReclaimRandom.
func applyPerPage(k *kernel.Kernel, cfg Config) (*Fragmenter, error) {
	f := &Fragmenter{
		K:     k,
		Cache: k.NewTask("pagecache"),
		rng:   xrand.New(cfg.Seed),
	}
	if err := f.placeUnmovable(cfg.UnmovableBytes); err != nil {
		return nil, err
	}
	fillPages := k.Mem.FreeFrames()
	va, err := f.Cache.AS.MMap(units.AlignUp(fillPages*units.Page4K, units.Page4K), vmm.KindAnon)
	if err != nil {
		return nil, fmt.Errorf("fragment: cache VMA: %w", err)
	}
	f.initHeld()
	for i := uint64(0); i < fillPages; i++ {
		pfn, err := k.Buddy.Alloc(0, false)
		if err != nil {
			return nil, fmt.Errorf("fragment: fill alloc: %w", err)
		}
		pageVA := va + i*units.Page4K
		if err := k.MapSpecific(f.Cache, pageVA, pfn, units.Size4K); err != nil {
			return nil, fmt.Errorf("fragment: fill map: %w", err)
		}
		region := units.RegionOfFrame(pfn)
		f.held[region] = append(f.held[region], pageVA)
		f.total++
	}
	f.assignWeights()
	if got := f.ReclaimRandom(cfg.FreeBytes); got < cfg.FreeBytes {
		return nil, fmt.Errorf("fragment: reclaimed only %d of %d bytes", got, cfg.FreeBytes)
	}
	return f, nil
}

// machineState is the machine state Apply leaves behind, flattened for
// comparison.
type machineState struct {
	heads    [][]uint64
	regions  []phys.RegionStats
	free     uint64
	owners   []ownerAt
	mappings []pagetable.Mapping
}

type ownerAt struct {
	pfn uint64
	o   phys.Owner
}

func stateOf(t *testing.T, k *kernel.Kernel, cache *kernel.Task) machineState {
	t.Helper()
	if err := k.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var s machineState
	for o := 0; o <= k.Buddy.MaxOrder(); o++ {
		s.heads = append(s.heads, k.Buddy.FreeChunkHeads(o))
	}
	for r := uint64(0); r < k.Mem.NumRegions(); r++ {
		s.regions = append(s.regions, k.Mem.Region(r))
	}
	s.free = k.Mem.FreeFrames()
	k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
		s.owners = append(s.owners, ownerAt{pfn, o})
		return true
	})
	cache.AS.PT.ForEach(0, pagetable.MaxVA, func(m pagetable.Mapping) bool {
		s.mappings = append(s.mappings, m)
		return true
	})
	return s
}

func requireSameState(t *testing.T, what string, got, want machineState) {
	t.Helper()
	for o := range want.heads {
		if !slices.Equal(got.heads[o], want.heads[o]) {
			t.Fatalf("%s: order-%d free chunks differ: %d vs %d heads", what, o, len(got.heads[o]), len(want.heads[o]))
		}
	}
	if !slices.Equal(got.regions, want.regions) {
		t.Fatalf("%s: region stats differ:\n got %v\nwant %v", what, got.regions, want.regions)
	}
	if got.free != want.free {
		t.Fatalf("%s: free frames %d, want %d", what, got.free, want.free)
	}
	if !slices.Equal(got.owners, want.owners) {
		t.Fatalf("%s: reverse maps differ (%d vs %d owners)", what, len(got.owners), len(want.owners))
	}
	if !slices.Equal(got.mappings, want.mappings) {
		t.Fatalf("%s: cache page tables differ (%d vs %d mappings)", what, len(got.mappings), len(want.mappings))
	}
}

func requireSameFragmenter(t *testing.T, what string, got, want *Fragmenter) {
	t.Helper()
	if got.HeldBytes() != want.HeldBytes() {
		t.Fatalf("%s: held %d bytes, want %d", what, got.HeldBytes(), want.HeldBytes())
	}
	if !slices.Equal(got.weight, want.weight) {
		t.Fatalf("%s: weights %v, want %v", what, got.weight, want.weight)
	}
	for r := range want.held {
		if !slices.Equal(got.held[r], want.held[r]) {
			t.Fatalf("%s: region %d held lists differ", what, r)
		}
	}
	// One draw from each: the streams stay in step with each other.
	if g, w := got.rng.Uint64(), want.rng.Uint64(); g != w {
		t.Fatalf("%s: rng streams diverged: %d vs %d", what, g, w)
	}
}

// FuzzApplyEquivalence checks that Apply's computed fill-and-reclaim leaves
// the machine exactly as the per-page reference does, and that the two
// fragmenters keep reclaiming identically afterwards. Only kernel.Ops
// differs: Apply never maps the pages reclaim frees, so it performs that
// many fewer maps and unmaps.
func FuzzApplyEquivalence(f *testing.F) {
	// gb%6+1 is the machine size in GB.
	f.Add(uint8(0), true, uint64(1), uint16(0), uint16(128))
	f.Add(uint8(2), false, uint64(2), uint16(40), uint16(1500))
	f.Add(uint8(4), true, uint64(3), uint16(64), uint16(2048))
	f.Add(uint8(5), false, uint64(4), uint16(48), uint16(5000))
	f.Add(uint8(1), true, uint64(5), uint16(900), uint16(100)) // unmovable placement fails
	f.Add(uint8(0), false, uint64(6), uint16(8), uint16(1020)) // reclaim falls short
	f.Fuzz(func(t *testing.T, gb uint8, trident bool, seed uint64, unmovableMiB, freeMiB uint16) {
		memBytes := (uint64(gb%6) + 1) * units.Page1G
		maxOrder := units.StockMaxOrder
		if trident {
			maxOrder = units.TridentMaxOrder
		}
		cfg := Config{
			Seed:           seed,
			UnmovableBytes: uint64(unmovableMiB) * units.MiB,
			FreeBytes:      uint64(freeMiB) * units.MiB % (memBytes + units.Page1G),
		}
		ref := kernel.New(memBytes, maxOrder)
		fr, errRef := applyPerPage(ref, cfg)
		k := kernel.New(memBytes, maxOrder)
		fk, err := Apply(k, cfg)
		if fmt.Sprint(err) != fmt.Sprint(errRef) {
			t.Fatalf("Apply error %v, reference error %v", err, errRef)
		}
		cacheRef, cache := ref.Tasks()[0], k.Tasks()[0]
		requireSameState(t, "after Apply", stateOf(t, k, cache), stateOf(t, ref, cacheRef))
		if err != nil {
			return
		}
		reclaimed := k.Mem.FreeFrames() // the fill left no frame free
		if k.Ops.Unmaps != 0 || ref.Ops.Maps-k.Ops.Maps != reclaimed || ref.Ops.Unmaps != reclaimed {
			t.Fatalf("ops %+v vs reference %+v: want %d fewer maps and unmaps", k.Ops, ref.Ops, reclaimed)
		}
		requireSameFragmenter(t, "after Apply", fk, fr)

		more := cfg.FreeBytes/2 + units.MiB
		opsRef, ops := ref.Ops, k.Ops
		if g, w := fk.ReclaimRandom(more), fr.ReclaimRandom(more); g != w {
			t.Fatalf("ReclaimRandom freed %d bytes, reference %d", g, w)
		}
		if ref.Ops.Unmaps-opsRef.Unmaps != k.Ops.Unmaps-ops.Unmaps {
			t.Fatal("ReclaimRandom unmapped different page counts")
		}
		requireSameState(t, "after ReclaimRandom", stateOf(t, k, cache), stateOf(t, ref, cacheRef))
		requireSameFragmenter(t, "after ReclaimRandom", fk, fr)
	})
}

// Region counts that are not powers of two make the float reclaim weights
// inexact, so their sum depends on summation order; Apply must still be a
// pure function of its inputs.
func TestApplyDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, UnmovableBytes: 48 * units.MiB, FreeBytes: 3 * units.Page1G}
	var states []machineState
	var frags []*Fragmenter
	for range 2 {
		k := kernel.New(6*units.Page1G, units.TridentMaxOrder)
		f, err := Apply(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, stateOf(t, k, f.Cache))
		frags = append(frags, f)
	}
	requireSameState(t, "second Apply", states[1], states[0])
	requireSameFragmenter(t, "second Apply", frags[1], frags[0])
}

func TestApplyReachesHighFMFI(t *testing.T) {
	k := kernel.New(4*units.Page1G, units.TridentMaxOrder)
	f, err := Apply(k, Config{
		Seed:           1,
		UnmovableBytes: 64 * units.MiB,
		FreeBytes:      units.Page1G,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's methodology reaches FMFI ≈ 0.95; scattered 4KB holes give
	// essentially full fragmentation at 2MB granularity.
	if fm := k.Buddy.FMFI(units.Order2M); fm < 0.9 {
		t.Errorf("FMFI(2MB) = %v, want >= 0.9", fm)
	}
	if fm := k.Buddy.FMFI(units.Order1G); fm != 1 {
		t.Errorf("FMFI(1GB) = %v, want 1", fm)
	}
	// Requested free memory is available (as 4KB pages).
	if free := k.Mem.FreeFrames() * units.Page4K; free < units.Page1G {
		t.Errorf("free = %d, want >= 1GB", free)
	}
	// No free 1GB chunk survives.
	if k.Buddy.FreeChunks(units.Order1G) != 0 {
		t.Error("a free 1GB chunk survived fragmentation")
	}
	if f.HeldBytes() == 0 {
		t.Error("page cache empty")
	}
}

func TestUnmovableClustering(t *testing.T) {
	k := kernel.New(4*units.Page1G, units.TridentMaxOrder)
	if _, err := Apply(k, Config{
		Seed:           2,
		UnmovableBytes: 128 * units.MiB,
		FreeBytes:      512 * units.MiB,
	}); err != nil {
		t.Fatal(err)
	}
	// 128MB at ~50% max density fits in the first region; later regions
	// must be unmovable-free so smart compaction has sources.
	withUnmovable := 0
	for r := uint64(0); r < k.Mem.NumRegions(); r++ {
		if k.Mem.Region(r).Unmovable > 0 {
			withUnmovable++
		}
	}
	if withUnmovable == 0 {
		t.Fatal("no unmovable pages placed")
	}
	if withUnmovable > 2 {
		t.Errorf("unmovable spread across %d regions, want clustered", withUnmovable)
	}
	if got := k.Mem.UnmovableFrames() * units.Page4K; got != 128*units.MiB {
		t.Errorf("unmovable bytes = %d", got)
	}
}

func TestReclaimRandomScatters(t *testing.T) {
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	f, err := Apply(k, Config{Seed: 3, FreeBytes: 64 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	before := k.Mem.FreeFrames()
	got := f.ReclaimRandom(32 * units.MiB)
	if got != 32*units.MiB {
		t.Errorf("reclaimed %d", got)
	}
	if k.Mem.FreeFrames()-before != 32*units.MiB/units.Page4K {
		t.Error("free frames mismatch")
	}
	// Still fragmented: the new free memory is scattered too.
	if fm := k.Buddy.FMFI(units.Order2M); fm < 0.9 {
		t.Errorf("FMFI after reclaim = %v", fm)
	}
}

func TestReclaimExhaustsCache(t *testing.T) {
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	f, err := Apply(k, Config{Seed: 4, FreeBytes: 16 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	got := f.ReclaimRandom(2 * units.Page1G) // more than exists
	if got == 0 {
		t.Error("reclaim-all freed nothing")
	}
	// Reclaim never drains a region below its scattered floor, so no free
	// 1GB chunk can appear.
	if f.HeldBytes() > uint64(minResidentPages)*units.Page4K*k.Mem.NumRegions() {
		t.Errorf("reclaim-all left %d bytes held", f.HeldBytes())
	}
	if k.Buddy.FreeChunks(units.Order1G) != 0 {
		t.Error("reclaim-all produced a free 1GB chunk")
	}
}

func TestApplyFailsWhenUnmovableTooLarge(t *testing.T) {
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	// More unmovable than the 50%-density budget allows.
	if _, err := Apply(k, Config{Seed: 5, UnmovableBytes: 900 * units.MiB, FreeBytes: 0}); err == nil {
		t.Error("expected placement failure")
	}
}

// End-to-end: a fragmented machine defeats direct 1GB allocation but smart
// compaction recovers chunks from the movable page cache — the Table 3
// "Fragmented / Smart compaction" story.
func TestSmartCompactionRecoversFromFragmentation(t *testing.T) {
	k := kernel.New(4*units.Page1G, units.TridentMaxOrder)
	_, err := Apply(k, Config{
		Seed:           6,
		UnmovableBytes: 32 * units.MiB,
		FreeBytes:      2 * units.Page1G,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Buddy.Alloc(units.Order1G, false); err == nil {
		t.Fatal("1GB allocation succeeded on fragmented memory")
	}
	c := compact.NewSmart(k)
	if !c.Compact() {
		t.Fatal("smart compaction failed")
	}
	if _, err := k.Buddy.Alloc(units.Order1G, false); err != nil {
		t.Error("no 1GB chunk after smart compaction")
	}
}
