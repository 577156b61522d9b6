package compact

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
	"repro/internal/xrand"
)

// mapAt places a user mapping at an exact physical location so tests can
// construct precise fragmentation patterns.
func mapAt(t *testing.T, k *kernel.Kernel, task *kernel.Task, va, pfn uint64, size units.PageSize) {
	t.Helper()
	if err := k.Buddy.AllocSpecific(pfn, size.Order(), false); err != nil {
		t.Fatalf("AllocSpecific(%d, %v): %v", pfn, size, err)
	}
	if err := k.MapSpecific(task, va, pfn, size); err != nil {
		t.Fatalf("MapSpecific: %v", err)
	}
}

func TestNormalCompactTrivialWhenChunkExists(t *testing.T) {
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	c := NewNormal(k)
	if !c.Compact(units.Order2M) {
		t.Fatal("compact failed on empty memory")
	}
	if c.BytesCopied != 0 {
		t.Error("no copying should be needed")
	}
	if c.Successes != 1 || c.Attempts != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestNormalCompactCreates2MChunk(t *testing.T) {
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	// Occupy one 4KB frame in every 2MB block: no free 2MB chunk anywhere.
	nBlocks := uint64(units.Page1G / units.Page2M)
	for b := uint64(0); b < nBlocks; b++ {
		mapAt(t, k, task, b*units.Page2M, b*512+b%512, units.Size4K)
	}
	if k.Buddy.FreeChunks(units.Order2M) != 0 {
		t.Fatal("setup: a free 2MB chunk exists")
	}
	c := NewNormal(k)
	if !c.Compact(units.Order2M) {
		t.Fatal("normal compaction failed")
	}
	if k.Buddy.FreeChunks(units.Order2M) == 0 {
		t.Error("no 2MB chunk after success")
	}
	if c.PagesMoved == 0 || c.BytesCopied == 0 {
		t.Errorf("no movement recorded: %+v", c.Stats)
	}
	// Mappings must survive, pointing somewhere valid.
	for b := uint64(0); b < nBlocks; b++ {
		m, ok := task.AS.PT.Lookup(b * units.Page2M)
		if !ok {
			t.Fatalf("mapping %d lost", b)
		}
		if !k.Mem.IsAllocated(m.PFN) {
			t.Fatalf("mapping %d points at free frame", b)
		}
	}
}

func TestNormalCompactWastesOnUnmovable(t *testing.T) {
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	// First 2MB block: two movable user pages then one unmovable kernel page.
	mapAt(t, k, task, 0, 0, units.Size4K)
	mapAt(t, k, task, units.Page4K, 1, units.Size4K)
	if err := k.Buddy.AllocSpecific(2, 0, true); err != nil {
		t.Fatal(err)
	}
	// Fill one frame in every other 2MB block so no free chunk exists.
	nBlocks := uint64(units.Page1G / units.Page2M)
	for b := uint64(1); b < nBlocks; b++ {
		mapAt(t, k, task, units.Page1G+b*units.Page2M, b*512, units.Size4K)
	}
	c := NewNormal(k)
	c.Compact(units.Order2M)
	if c.BytesWasted == 0 {
		t.Error("expected wasted bytes from abandoning the unmovable block")
	}
}

// TestAbandonedBlockReleasesMovedFrames pins evacuateBlock's deferred
// frees on the abandon path: the block's first two pages move before its
// unmovable frame stops the evacuation, and their old frames must be free
// when the block is given up, coalesced exactly as immediate frees leave
// them (frames 0-1 one order-1 chunk, frame 3 alone), with the moved
// mappings pointing at allocated frames above the block.
func TestAbandonedBlockReleasesMovedFrames(t *testing.T) {
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	mapAt(t, k, task, 0, 0, units.Size4K)
	mapAt(t, k, task, units.Page4K, 1, units.Size4K)
	if err := k.Buddy.AllocSpecific(2, 0, true); err != nil {
		t.Fatal(err)
	}
	used := k.Mem.AllocatedFrames()
	c := NewNormal(k)
	target := &targetScanner{k: k, pos: k.Mem.Frames()}
	copied, ok := c.evacuateBlock(0, 512, target)
	if ok || copied != 2*units.Page4K {
		t.Fatalf("evacuateBlock = %d, %v; want 2 pages copied and the block abandoned", copied, ok)
	}
	for f := uint64(0); f < 2; f++ {
		if k.Mem.IsAllocated(f) {
			t.Errorf("moved page's old frame %d still allocated after the block was abandoned", f)
		}
	}
	if got := k.Mem.AllocatedFrames(); got != used {
		t.Errorf("%d frames allocated, want %d (two moved pages and the unmovable frame)", got, used)
	}
	if heads := k.Buddy.FreeChunkHeads(1); len(heads) == 0 || heads[0] != 0 {
		t.Errorf("order-1 free heads %v, want frames 0-1 coalesced", heads)
	}
	if heads := k.Buddy.FreeChunkHeads(0); len(heads) == 0 || heads[0] != 3 {
		t.Errorf("order-0 free heads %v, want frame 3 first", heads)
	}
	for va := uint64(0); va < 2*units.Page4K; va += units.Page4K {
		m, ok := task.AS.PT.Lookup(va)
		if !ok || m.PFN < 512 || !k.Mem.IsAllocated(m.PFN) {
			t.Errorf("mapping at %#x = %+v, %v; want it moved above the block", va, m, ok)
		}
	}
	if err := k.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSmartCompactSelectsEmptiestRegion(t *testing.T) {
	k := kernel.New(4*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	// Region 0: nearly full (all but 64 frames). Region 1: 8 pages only.
	// Regions 2,3: half full (room for targets).
	va := uint64(0)
	fill := func(region uint64, frames uint64, stride uint64) {
		base := region * units.FramesPerRegion
		for i := uint64(0); i < frames; i++ {
			mapAt(t, k, task, va, base+i*stride, units.Size4K)
			va += units.Page4K
		}
	}
	fill(0, units.FramesPerRegion-64, 1)
	fill(1, 8, 1000) // sparse: emptiest region
	fill(2, units.FramesPerRegion/2, 2)
	fill(3, units.FramesPerRegion/2, 2)
	if k.Buddy.FreeChunks(units.Order1G) != 0 {
		t.Fatal("setup: free 1GB chunk exists")
	}
	c := NewSmart(k)
	if !c.Compact() {
		t.Fatal("smart compaction failed")
	}
	if k.Buddy.FreeChunks(units.Order1G) == 0 {
		t.Error("no 1GB chunk produced")
	}
	// It must have chosen region 1: only 8 pages (32KB) copied.
	if c.BytesCopied != 8*units.Page4K {
		t.Errorf("bytes copied = %d, want %d (emptiest region)", c.BytesCopied, 8*units.Page4K)
	}
	if c.BytesWasted != 0 {
		t.Errorf("wasted = %d", c.BytesWasted)
	}
	// Region 1 is now empty.
	if st := k.Mem.Region(1); st.Free != units.FramesPerRegion {
		t.Errorf("source region not freed: %+v", st)
	}
}

func TestSmartCompactAvoidsUnmovableRegions(t *testing.T) {
	k := kernel.New(3*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	// Region 0: 4 user pages + 1 unmovable kernel page → must be skipped
	// even though it is emptiest.
	for i := uint64(0); i < 4; i++ {
		mapAt(t, k, task, i*units.Page4K, i*100, units.Size4K)
	}
	if err := k.Buddy.AllocSpecific(500, 0, true); err != nil {
		t.Fatal(err)
	}
	// Region 1: 32 user pages, movable.
	for i := uint64(0); i < 32; i++ {
		mapAt(t, k, task, units.Page1G+i*units.Page4K, units.FramesPerRegion+i*512, units.Size4K)
	}
	// Region 2: half full (target space).
	for i := uint64(0); i < units.FramesPerRegion/2; i++ {
		mapAt(t, k, task, 2*units.Page1G+i*units.Page4K, 2*units.FramesPerRegion+2*i, units.Size4K)
	}
	c := NewSmart(k)
	if !c.Compact() {
		t.Fatal("smart compaction failed")
	}
	// Region 1 (32 pages) must be the source, not region 0.
	if c.BytesCopied != 32*units.Page4K {
		t.Errorf("bytes copied = %d, want %d", c.BytesCopied, 32*units.Page4K)
	}
	if k.Mem.Region(1).Free != units.FramesPerRegion {
		t.Error("region 1 not freed")
	}
}

func TestSmartCompactFailsWhenAllRegionsUnmovable(t *testing.T) {
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	// One unmovable page in each region.
	for r := uint64(0); r < 2; r++ {
		if err := k.Buddy.AllocSpecific(r*units.FramesPerRegion+7, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	c := NewSmart(k)
	if c.Compact() {
		t.Error("compaction succeeded despite unmovable pages everywhere")
	}
	if c.BytesCopied != 0 {
		t.Error("should not copy anything")
	}
}

func TestSmartCompactFailsWithoutTargetSpace(t *testing.T) {
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	// Fill both regions almost completely; the emptiest region's pages
	// cannot fit in the other's free space.
	va := uint64(0)
	for r := uint64(0); r < 2; r++ {
		base := r * units.FramesPerRegion
		for i := uint64(0); i < units.FramesPerRegion-4; i++ {
			mapAt(t, k, task, va, base+i, units.Size4K)
			va += units.Page4K
		}
	}
	c := NewSmart(k)
	if c.Compact() {
		t.Error("compaction succeeded without room")
	}
}

func TestSmartMoves2MPages(t *testing.T) {
	k := kernel.New(3*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	// Region 0 (emptiest): three 2MB pages. Region 1: every other 2MB block
	// fully occupied, leaving aligned 2MB holes for targets. Region 2: four
	// pages per 2MB block (denser than region 0, no large holes).
	for i := uint64(0); i < 3; i++ {
		mapAt(t, k, task, i*units.Page2M, i*2*512, units.Size2M)
	}
	va := uint64(16 * units.Page1G)
	for b := uint64(0); b < 512; b += 2 {
		mapAt(t, k, task, va, units.FramesPerRegion+b*512, units.Size2M)
		va += units.Page2M
	}
	for b := uint64(0); b < 512; b++ {
		for j := uint64(0); j < 4; j++ {
			mapAt(t, k, task, 2*units.Page1G+b*units.Page2M+j*units.Page4K,
				2*units.FramesPerRegion+b*512+j, units.Size4K)
		}
	}
	c := NewSmart(k)
	if !c.Compact() {
		t.Fatal("smart compaction failed")
	}
	if c.BytesCopied != 3*units.Page2M {
		t.Errorf("bytes copied = %d, want %d", c.BytesCopied, 3*units.Page2M)
	}
	// The 2MB mappings survive.
	for i := uint64(0); i < 3; i++ {
		m, ok := task.AS.PT.Lookup(i * units.Page2M)
		if !ok || m.Size != units.Size2M {
			t.Fatalf("2MB mapping %d lost: %+v", i, m)
		}
	}
}

// The Figure-7 property in miniature: for the same fragmentation pattern,
// smart compaction copies no more than normal compaction to produce a 1GB
// chunk.
func TestSmartCopiesLessThanNormal(t *testing.T) {
	build := func() (*kernel.Kernel, *kernel.Task) {
		k := kernel.New(4*units.Page1G, units.TridentMaxOrder)
		task := k.NewTask("p")
		rng := xrand.New(11)
		va := uint64(0)
		// Random occupancy: region r gets (r+1)*20% of frames occupied in
		// 4KB pages at random positions.
		for r := uint64(0); r < 4; r++ {
			base := r * units.FramesPerRegion
			want := units.FramesPerRegion * (r + 1) / 5
			placed := uint64(0)
			for placed < want {
				pfn := base + rng.Uint64n(units.FramesPerRegion)
				if k.Mem.IsAllocated(pfn) {
					continue
				}
				if err := k.Buddy.AllocSpecific(pfn, 0, false); err != nil {
					continue
				}
				if err := k.MapSpecific(task, va, pfn, units.Size4K); err != nil {
					t.Fatal(err)
				}
				va += units.Page4K
				placed++
			}
		}
		return k, task
	}

	k1, _ := build()
	smart := NewSmart(k1)
	okSmart := smart.Compact()

	k2, _ := build()
	normal := NewNormal(k2)
	okNormal := normal.Compact(units.Order1G)

	if !okSmart {
		t.Fatal("smart failed")
	}
	if okNormal && normal.BytesCopied < smart.BytesCopied {
		t.Errorf("normal copied less (%d) than smart (%d)",
			normal.BytesCopied, smart.BytesCopied)
	}
	// Smart should copy roughly the emptiest region's occupancy (~20%).
	expect := uint64(units.FramesPerRegion) / 5 * units.Page4K
	if smart.BytesCopied > expect*11/10 {
		t.Errorf("smart copied %d, expected about %d", smart.BytesCopied, expect)
	}
	t.Logf("smart=%s normal=%s (normal ok=%v)",
		units.HumanBytes(smart.BytesCopied), units.HumanBytes(normal.BytesCopied), okNormal)
}

func TestNormalCompactResumesFromPointer(t *testing.T) {
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("p")
	nBlocks := uint64(units.Page1G / units.Page2M)
	for b := uint64(0); b < nBlocks; b++ {
		mapAt(t, k, task, b*units.Page2M, b*512, units.Size4K)
	}
	c := NewNormal(k)
	if !c.Compact(units.Order2M) {
		t.Fatal("first compact failed")
	}
	first := c.srcPtr
	// Consume the produced chunk so the next call must work again.
	if _, err := k.Buddy.Alloc(units.Order2M, false); err != nil {
		t.Fatal(err)
	}
	if !c.Compact(units.Order2M) {
		t.Fatal("second compact failed")
	}
	if c.srcPtr <= first {
		t.Errorf("migrate scanner did not advance: %d -> %d", first, c.srcPtr)
	}
}
