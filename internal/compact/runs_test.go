package compact

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/perfmodel"
	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/xrand"
)

// compactPerPage is Normal.compact's reference: the same block walk over
// evacuatePerPage.
func compactPerPage(c *Normal, targetOrder int) bool {
	c.Attempts++
	if c.K.Buddy.FreeBytesAtOrder(targetOrder) > 0 {
		c.Successes++
		return true
	}
	blockFrames := uint64(1) << uint(targetOrder)
	totalFrames := c.K.Mem.Frames()
	if c.tgtPtr == 0 {
		c.tgtPtr = totalFrames
	}
	target := &targetScanner{k: c.K, pos: c.tgtPtr}
	var attemptCopied uint64
	for block := c.srcPtr &^ (blockFrames - 1); block+blockFrames <= target.pos; block += blockFrames {
		if c.Abort != nil && c.Abort() {
			c.srcPtr, c.tgtPtr = block, target.pos
			return c.finish(targetOrder)
		}
		copied, ok := evacuatePerPage(c, block, blockFrames, target)
		attemptCopied += copied
		c.BytesCopied += copied
		if ok {
			c.srcPtr, c.tgtPtr = block+blockFrames, target.pos
			return c.finish(targetOrder)
		}
		c.BytesWasted += copied
		if c.MaxAttemptBytes > 0 && attemptCopied > c.MaxAttemptBytes {
			c.srcPtr, c.tgtPtr = block+blockFrames, target.pos
			return c.finish(targetOrder)
		}
	}
	c.srcPtr, c.tgtPtr = 0, totalFrames
	return c.finish(targetOrder)
}

// evacuatePerPage is evacuateBlock's reference: every frame inspected on
// its own, every page's destination claimed with take and every page
// moved with movePerPage before the next page is looked at.
func evacuatePerPage(c *Normal, block, frames uint64, target *targetScanner) (uint64, bool) {
	var copied uint64
	mem := c.K.Mem
	frees := c.K.Buddy.Batch()
	defer frees.Flush()
	c.Nanoseconds += float64(frames) * scanNsPerFrame
	for f := block; f < block+frames; {
		if !mem.IsAllocated(f) {
			f++
			continue
		}
		if mem.IsUnmovable(f) {
			return copied, false
		}
		task, o, head, ok := c.K.OwnerTask(f)
		if !ok || o.Size.Frames() >= frames || head < block {
			return copied, false
		}
		dest, ok := target.take(o.Size.Order(), block+frames)
		if !ok && o.Size == units.Size2M {
			if err := c.K.DemotePage(task, o.VA); err == nil {
				c.Nanoseconds += 512 * perfmodel.PTEUpdateNs
				continue
			}
		}
		if !ok {
			return copied, false
		}
		old, err := movePerPage(c.K, task, o.VA, o.Size, dest)
		if err != nil {
			c.K.Buddy.Free(dest, o.Size.Order())
			return copied, false
		}
		frees.Add(old, o.Size.Frames())
		copied += o.Size.Bytes()
		c.PagesMoved++
		c.Nanoseconds += perfmodel.CopyNs(o.Size.Bytes()) + perfmodel.PTEUpdateNs
		f = head + o.Size.Frames()
	}
	return copied, true
}

// movePerPage is a one-page move spelled out: look the mapping up,
// repoint it, re-register its owner and shoot it down.
func movePerPage(k *kernel.Kernel, t *kernel.Task, va uint64, size units.PageSize, newPFN uint64) (uint64, error) {
	m, ok := t.AS.PT.Lookup(va)
	if !ok || m.Size != size || m.VA != va {
		return 0, fmt.Errorf("no %v mapping at %#x", size, va)
	}
	if err := t.AS.PT.Replace(va, size, newPFN); err != nil {
		return 0, err
	}
	k.Mem.ClearOwner(m.PFN)
	k.Mem.SetOwner(newPFN, phys.Owner{Space: t.AS.ID, VA: va, Size: size})
	if k.Shootdown != nil {
		k.Shootdown(t, va, 1, size)
	}
	k.Ops.Moves++
	return m.PFN, nil
}

// compactDraw is one generated compaction scenario: FuzzCompactRunEquivalence's
// input.
type compactDraw struct {
	seed    uint64
	trident bool  // 2GB Trident-flavoured machine, else 1GB stock
	mix     uint8 // bits 0-2: unmovable odds; 3-5: unowned odds; 6-7: 2MB odds
	top     uint8 // the top top/512 of memory is allocated densely
	fail    uint8 // FailAlloc fails a claim with odds fail/1024
	abort   uint8 // Abort fires with odds abort/256 per block
	budget  uint8 // MaxAttemptBytes: budget*64KB, 0 for the default
	rounds  uint8 // Compact calls, 1 + rounds%8
}

// layOutFragmented allocates k's memory from frame 0 up, a segment at a
// time: free gaps, runs of 4KB pages of one of three tasks at consecutive
// frames (VAs consecutive but for an occasional skipped page, so runs
// break), 2MB pages (some demoted into 512-page runs), unmovable frames
// and allocated frames with no owner; every 2MB block left empty gets one
// 4KB page. The top of memory is then allocated densely, ownerless, so the
// free scanner runs dry.
func layOutFragmented(t *testing.T, k *kernel.Kernel, d compactDraw) {
	t.Helper()
	rng := xrand.New(d.seed)
	tasks := []*kernel.Task{k.NewTask("a"), k.NewTask("b"), k.NewTask("c")}
	var cursor [3]uint64
	for i := range cursor {
		cursor[i] = uint64(i+1) * 64 * units.Page1G
	}
	frames := k.Mem.Frames()
	topStart := frames - frames*uint64(d.top)/512
	alloc := func(pfn uint64, order int, unmovable bool) {
		if err := k.Buddy.AllocSpecific(pfn, order, unmovable); err != nil {
			t.Fatalf("AllocSpecific(%d, %d): %v", pfn, order, err)
		}
	}
	for f := uint64(0); f < topStart; {
		switch r := rng.Intn(64); {
		case r < int(d.mix&7):
			alloc(f, 0, true)
			f++
		case r < int(d.mix&7)+int(d.mix>>3&7):
			alloc(f, 0, false)
			f++
		case r < int(d.mix&7)+int(d.mix>>3&7)+4*int(d.mix>>6):
			f = units.AlignUp(f, 512)
			if f+512 > topStart {
				f = topStart
				break
			}
			i := rng.Intn(3)
			va := units.AlignUp(cursor[i], units.Page2M)
			alloc(f, units.Order2M, false)
			if err := k.MapSpecific(tasks[i], va, f, units.Size2M); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) == 0 {
				if err := k.DemotePage(tasks[i], va); err != nil {
					t.Fatal(err)
				}
			}
			cursor[i] = va + units.Page2M
			f += 512
		case r < 40:
			i := rng.Intn(3)
			for n := 1 + rng.Intn(700); n > 0 && f < topStart; n-- {
				alloc(f, 0, false)
				if err := k.MapSpecific(tasks[i], cursor[i], f, units.Size4K); err != nil {
					t.Fatal(err)
				}
				cursor[i] += units.Page4K
				if rng.Intn(64) == 0 {
					cursor[i] += units.Page4K
				}
				f++
			}
		default:
			f += 1 + uint64(rng.Intn(600))
		}
	}
	// Pin every 2MB block left empty with one scattered 4KB page, so no
	// free 2MB chunk is left and every Compact call has work to do.
	for b := uint64(0); b+512 <= topStart; b += 512 {
		if k.Mem.AllocatedInRange(b, 512) == 0 {
			f, i := b+uint64(rng.Intn(512)), rng.Intn(3)
			alloc(f, 0, false)
			if err := k.MapSpecific(tasks[i], cursor[i], f, units.Size4K); err != nil {
				t.Fatal(err)
			}
			cursor[i] += units.Page4K
		}
	}
	for f := topStart; f < frames; f++ {
		if rng.Intn(32) != 0 {
			alloc(f, 0, false)
		}
	}
}

// FuzzCompactRunEquivalence checks sequential compaction by runs against
// its per-page reference (compactPerPage). Two identical machines, laid out
// by layOutFragmented, run the same sequence of 2MB- and 1GB-targeted
// Compact calls under the same FailAlloc and Abort draws, one by runs and
// one page at a time. They must agree on every call's outcome, the page
// tables, the reverse map, the buddy free lists and counts, the region
// counters, the op counts, the Stats bit for bit, the scanner positions,
// the FailAlloc calls and the expanded (task, page, size) sequence of
// shootdowns.
func FuzzCompactRunEquivalence(f *testing.F) {
	f.Add(uint64(1), false, uint8(0x00), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(2), true, uint8(0x41), uint8(40), uint8(0), uint8(0), uint8(0), uint8(5))
	f.Add(uint64(3), false, uint8(0xc9), uint8(200), uint8(30), uint8(20), uint8(4), uint8(7))
	f.Add(uint64(4), true, uint8(0x80), uint8(250), uint8(0), uint8(0), uint8(1), uint8(2))
	f.Add(uint64(5), false, uint8(0x12), uint8(100), uint8(200), uint8(60), uint8(0), uint8(6))
	f.Add(uint64(6), true, uint8(0xff), uint8(10), uint8(5), uint8(0), uint8(16), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, trident bool, mix, top, fail, abort, budget, rounds uint8) {
		checkCompactRuns(t, compactDraw{seed, trident, mix, top, fail, abort, budget, rounds})
	})
}

// TestCompactRunsMatchPerPage runs the equivalence check on the fuzzer's
// seed shapes and a few more: dense and sparse runs, demoted 2MB pages,
// unmovable and unowned frames, a free scanner run dry mid-run, failing
// claims, aborts and tight attempt budgets.
func TestCompactRunsMatchPerPage(t *testing.T) {
	for i, d := range []compactDraw{
		{seed: 11, mix: 0x00, top: 0, rounds: 3},
		{seed: 12, trident: true, mix: 0xc0, top: 60, rounds: 6},
		{seed: 13, mix: 0x09, top: 250, rounds: 4},
		{seed: 14, trident: true, mix: 0x52, top: 128, fail: 40, abort: 30, rounds: 7},
		{seed: 15, mix: 0x40, top: 200, budget: 2, rounds: 7},
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkCompactRuns(t, d) })
	}
}

// shootdown is one page of a kernel.Shootdown call.
type shootdown struct {
	space uint32
	va    uint64
	size  units.PageSize
}

func checkCompactRuns(t *testing.T, d compactDraw) {
	t.Helper()
	var ks [2]*kernel.Kernel
	var cs [2]*Normal
	var shot [2][]shootdown
	var fails, oks [2][]bool
	for side := range ks {
		memBytes, maxOrder := uint64(units.Page1G), units.StockMaxOrder
		if d.trident {
			memBytes, maxOrder = 2*units.Page1G, units.TridentMaxOrder
		}
		k := kernel.New(memBytes, maxOrder)
		layOutFragmented(t, k, d)
		k.Shootdown = func(task *kernel.Task, va, n uint64, size units.PageSize) {
			for i := uint64(0); i < n; i++ {
				shot[side] = append(shot[side], shootdown{task.AS.ID, va + i*size.Bytes(), size})
			}
		}
		failRng, abortRng := xrand.New(d.seed+1), xrand.New(d.seed+2)
		failAlloc := func(int) bool {
			fail := failRng.Intn(1024) < int(d.fail)
			fails[side] = append(fails[side], fail)
			return fail
		}
		k.Buddy.FailAlloc = failAlloc
		c := NewNormal(k)
		if d.abort > 0 {
			c.Abort = func() bool { return abortRng.Intn(256) < int(d.abort) }
		}
		if d.budget > 0 {
			c.MaxAttemptBytes = uint64(d.budget) * 64 * units.KiB
		}
		orders := xrand.New(d.seed + 3)
		for range 1 + d.rounds%8 {
			order := units.Order2M
			if d.trident && orders.Intn(3) == 0 {
				order = units.Order1G
			}
			var ok bool
			if side == 0 {
				ok = c.Compact(order)
			} else {
				ok = compactPerPage(c, order)
			}
			oks[side] = append(oks[side], ok)
			if ok {
				k.Buddy.FailAlloc = nil
				if _, err := k.Buddy.Alloc(order, false); err != nil {
					t.Fatalf("side %d: no order-%d chunk after a successful Compact: %v", side, order, err)
				}
				k.Buddy.FailAlloc = failAlloc
			}
		}
		ks[side], cs[side] = k, c
	}
	if !slices.Equal(oks[0], oks[1]) {
		t.Fatalf("Compact outcomes %v, per-page %v", oks[0], oks[1])
	}
	if !slices.Equal(fails[0], fails[1]) {
		t.Fatalf("FailAlloc consulted %d times, per-page %d", len(fails[0]), len(fails[1]))
	}
	got, want := cs[0].Stats, cs[1].Stats
	if math.Float64bits(got.Nanoseconds) != math.Float64bits(want.Nanoseconds) {
		t.Fatalf("Nanoseconds %v, per-page %v", got.Nanoseconds, want.Nanoseconds)
	}
	if got != want {
		t.Fatalf("stats %+v, per-page %+v", got, want)
	}
	if cs[0].srcPtr != cs[1].srcPtr || cs[0].tgtPtr != cs[1].tgtPtr {
		t.Fatalf("scanners at %d/%d, per-page %d/%d", cs[0].srcPtr, cs[0].tgtPtr, cs[1].srcPtr, cs[1].tgtPtr)
	}
	if ks[0].Ops != ks[1].Ops {
		t.Fatalf("ops %+v, per-page %+v", ks[0].Ops, ks[1].Ops)
	}
	if i := firstDiff(shot[0], shot[1]); i >= 0 {
		t.Fatalf("shootdowns differ at page %d of %d/%d", i, len(shot[0]), len(shot[1]))
	}
	requireSameState(t, stateOf(ks[0]), stateOf(ks[1]))
	for side, k := range ks {
		if err := k.Buddy.CheckInvariants(); err != nil {
			t.Fatalf("side %d: %v", side, err)
		}
	}
}

// machineState is the machine state a compaction leaves: every task's
// page table, the reverse map, the buddy free lists and counts and the
// region counters, flattened for comparison.
type machineState struct {
	mappings []pagetable.Mapping
	owners   []ownerAt
	heads    [][]uint64
	counts   []uint64
	regions  []phys.RegionStats
	free     uint64
}

type ownerAt struct {
	pfn uint64
	o   phys.Owner
}

func stateOf(k *kernel.Kernel) machineState {
	var s machineState
	for _, task := range k.Tasks() {
		task.AS.PT.ForEach(0, pagetable.MaxVA, func(m pagetable.Mapping) bool {
			m.VA |= uint64(task.AS.ID) << 56 // tasks' VAs never reach bit 56
			s.mappings = append(s.mappings, m)
			return true
		})
	}
	k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
		s.owners = append(s.owners, ownerAt{pfn, o})
		return true
	})
	for o := 0; o <= k.Buddy.MaxOrder(); o++ {
		s.heads = append(s.heads, k.Buddy.FreeChunkHeads(o))
		s.counts = append(s.counts, k.Buddy.FreeChunks(o))
	}
	for r := uint64(0); r < k.Mem.NumRegions(); r++ {
		s.regions = append(s.regions, k.Mem.Region(r))
	}
	s.free = k.Mem.FreeFrames()
	return s
}

func requireSameState(t *testing.T, got, want machineState) {
	t.Helper()
	if i := firstDiff(got.mappings, want.mappings); i >= 0 {
		t.Fatalf("page tables differ at mapping %d of %d/%d", i, len(got.mappings), len(want.mappings))
	}
	if i := firstDiff(got.owners, want.owners); i >= 0 {
		t.Fatalf("reverse maps differ at owner %d of %d/%d", i, len(got.owners), len(want.owners))
	}
	for o := range want.heads {
		if !slices.Equal(got.heads[o], want.heads[o]) || got.counts[o] != want.counts[o] {
			t.Fatalf("order-%d free chunks differ: %d vs %d", o, got.counts[o], want.counts[o])
		}
	}
	if !slices.Equal(got.regions, want.regions) || got.free != want.free {
		t.Fatalf("region counters differ:\n got %v, %d free\nwant %v, %d free", got.regions, got.free, want.regions, want.free)
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[E comparable](a, b []E) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
