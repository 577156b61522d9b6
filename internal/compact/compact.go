// Package compact implements physical-memory compaction in the two flavours
// Figure 6 contrasts:
//
//   - Normal: Linux's sequential scheme. A migrate scanner walks target-order
//     aligned blocks from low addresses (resuming where it last stopped); a
//     free scanner walks from high addresses. Occupied movable pages in the
//     current block are copied to free frames near the top until the block is
//     empty. The scheme is agnostic to how full a block is, so freeing a
//     mostly-full 1GB region can copy ~1GB of data, and a single unmovable
//     page wastes all copying already done for the block.
//
//   - Smart (Trident, §5.1.3): instead of scanning, select the 1GB region
//     with the most free frames and no unmovable pages as the source, and
//     regions with the fewest free frames as targets. This minimizes bytes
//     copied and never wastes work on unmovable contents.
//
// Both report bytes copied, bytes wasted and modeled nanoseconds so the
// harness can reproduce Figure 7 (bytes-copied reduction) and the
// performance deltas of Figures 10/11.
package compact

import (
	"cmp"
	"slices"

	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/units"
)

// Stats accumulates compaction work across attempts.
type Stats struct {
	Attempts  uint64
	Successes uint64
	// BytesCopied is data actually migrated.
	BytesCopied uint64
	// BytesWasted is data copied for blocks later abandoned (unmovable page
	// discovered mid-block, or the run failed before producing a chunk).
	BytesWasted uint64
	PagesMoved  uint64
	// Nanoseconds is the modeled CPU time spent compacting (copies, PTE
	// rewrites and scanning).
	Nanoseconds float64
}

// scanNsPerFrame is the modeled cost of inspecting one frame's metadata
// while scanning for migration candidates or free target frames.
const scanNsPerFrame = 2.0

// Normal is Linux's sequential-scanning compactor.
type Normal struct {
	K *kernel.Kernel
	Stats
	srcPtr uint64 // frame where the migrate scanner resumes
	tgtPtr uint64 // frame where the free scanner resumes (scans downward)
	// MaxAttemptBytes bounds the data copied by a single Compact call
	// before giving up (Linux's deferred compaction gives up on expensive
	// attempts rather than migrating forever). 0 means unbounded.
	MaxAttemptBytes uint64
	// Abort, if set, is consulted at every block boundary; returning true
	// abandons the current attempt there (scanner positions persist, so
	// the next attempt resumes normally). The chaos injector uses it to
	// model contention cutting a compaction run short.
	Abort func() bool
	// OnAttempt, if set, observes each Compact call: the bytes it copied
	// and whether a target-order chunk was available afterwards. The
	// observability layer uses it; nil in ordinary runs.
	OnAttempt func(copiedBytes uint64, ok bool)
}

// DefaultMaxAttemptBytes bounds one sequential-compaction attempt: enough
// to evacuate several 1GB blocks' worth of data, far beyond what a sane
// attempt needs, while keeping pathological attempts finite.
const DefaultMaxAttemptBytes = 4 * units.Page1G

// NewNormal creates a sequential compactor over k.
func NewNormal(k *kernel.Kernel) *Normal {
	return &Normal{K: k, MaxAttemptBytes: DefaultMaxAttemptBytes}
}

// Compact tries to create one free chunk of targetOrder (units.Order2M or
// units.Order1G), returning whether such a chunk is available afterwards.
func (c *Normal) Compact(targetOrder int) bool {
	before := c.BytesCopied
	ok := c.compact(targetOrder)
	if c.OnAttempt != nil {
		c.OnAttempt(c.BytesCopied-before, ok)
	}
	return ok
}

func (c *Normal) compact(targetOrder int) bool {
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

	// Walk blocks upward from the saved migrate-scanner position until the
	// scanners meet; both scanner positions persist across attempts, as in
	// Linux, and reset together when a sweep fails.
	for block := c.srcPtr &^ (blockFrames - 1); block+blockFrames <= target.pos; block += blockFrames {
		if c.Abort != nil && c.Abort() {
			c.srcPtr = block
			c.tgtPtr = target.pos
			return c.finish(targetOrder)
		}
		copied, ok := c.evacuateBlock(block, blockFrames, target)
		attemptCopied += copied
		if ok {
			c.srcPtr = block + blockFrames
			c.tgtPtr = target.pos
			c.BytesCopied += copied
			return c.finish(targetOrder)
		}
		c.BytesWasted += copied
		c.BytesCopied += copied
		if c.MaxAttemptBytes > 0 && attemptCopied > c.MaxAttemptBytes {
			// Defer: give up this attempt, resume here next time.
			c.srcPtr = block + blockFrames
			c.tgtPtr = target.pos
			return c.finish(targetOrder)
		}
	}
	c.srcPtr = 0
	c.tgtPtr = totalFrames
	return c.finish(targetOrder)
}

// evacuateBlock tries to empty [block, block+frames). It returns the bytes
// copied and whether the block is now entirely free. On encountering an
// unmovable or unowned page it abandons the block (copies so far wasted).
//
// It moves pages a run at a time: a stretch of frames heading 4KB pages of
// one task at consecutive VAs (phys.Memory.Run4K, at most maxRun long)
// resolves its task once, claims its destinations in one downward pass of
// the free scanner (takeRun) and moves with one kernel.MoveRun. The
// checks, destinations, claim order and per-page accounting are exactly
// those of moving the run's pages one at a time: a run's pages pass the
// checks its first page passes, and its moves touch no frame the claims
// read (sources lie below the block's end, destinations at or above it).
// Larger pages move one at a time.
//
// The moved pages' old frames are freed in one batch when the block ends,
// on every return path. Deferring them is invisible: the scan never
// revisits a moved page's frames, the target scanner only reads and claims
// frames at or above the block's end, and the buddy allocator's state depends
// only on which frames are free (buddy.FreeBatch).
func (c *Normal) evacuateBlock(block, frames uint64, target *targetScanner) (uint64, bool) {
	var copied uint64
	var buf [maxRun]uint64 // a run's destinations
	mem := c.K.Mem
	end := block + frames
	frees := c.K.Buddy.Batch()
	defer frees.Flush()
	c.Nanoseconds += float64(frames) * scanNsPerFrame
	for f := mem.NextAllocated(block, end); f < end; f = mem.NextAllocated(f, end) {
		if mem.IsUnmovable(f) {
			return copied, false
		}
		task, o, head, ok := c.K.OwnerTask(f)
		if !ok {
			// Allocated, movable, but not relocatable by us (no rmap):
			// treat like unmovable contents.
			return copied, false
		}
		if o.Size.Frames() >= frames {
			// The block is covered by a page at least as large as the chunk
			// we are trying to create; moving it cannot help.
			return copied, false
		}
		if head < block {
			// A huge page straddling in from below the block; cannot happen
			// for aligned blocks >= the page size, but be safe.
			return copied, false
		}
		if o.Size == units.Size4K {
			dests := buf[:mem.Run4K(f, min(end, f+maxRun))]
			claimed := target.takeRun(dests, end)
			old, err := c.K.MoveRun(task, o.VA, units.Size4K, dests[:claimed])
			ns := perfmodel.CopyNs(units.Page4K) + perfmodel.PTEUpdateNs
			for _, pfn := range old {
				frees.Add(pfn, 1)
				copied += units.Page4K
				c.PagesMoved++
				c.Nanoseconds += ns
			}
			if err != nil {
				// A destination was claimed but its move failed: release it
				// and the ones claimed after it, leaving the scanner where
				// the failed page's claim left it.
				for _, d := range dests[len(old):claimed] {
					c.K.Buddy.Free(d, 0)
				}
				target.pos = dests[len(old)]
				return copied, false
			}
			if claimed < len(dests) {
				return copied, false
			}
			f += uint64(len(dests))
			continue
		}
		dest, ok := target.take(o.Size.Order(), end)
		if !ok && o.Size == units.Size2M {
			// Split the huge page and migrate base pages instead.
			if err := c.K.DemotePage(task, o.VA); err == nil {
				c.Nanoseconds += 512 * perfmodel.PTEUpdateNs
				continue
			}
		}
		if !ok {
			return copied, false
		}
		old, err := c.K.MovePage(task, o.VA, o.Size, dest)
		if err != nil {
			// Destination was claimed but the move failed; release it.
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

// maxRun caps the pages evacuateBlock moves with one kernel.MoveRun: one
// leaf page table's worth, which bounds the destination buffer on its
// stack.
const maxRun = 512

func (c *Normal) finish(targetOrder int) bool {
	if c.K.Buddy.FreeBytesAtOrder(targetOrder) > 0 {
		c.Successes++
		return true
	}
	return false
}

// targetScanner finds free destination frames from the top of memory
// downward, claiming them via AllocSpecific (Linux's free scanner). Its
// position persists across compaction attempts via Normal.tgtPtr.
type targetScanner struct {
	k   *kernel.Kernel
	pos uint64 // frames below pos are still unscanned territory
}

// take claims a free aligned chunk of the given order at the highest
// available address that is >= limit (the end of the block being
// evacuated). It returns the head PFN.
func (t *targetScanner) take(order int, limit uint64) (uint64, bool) {
	size := uint64(1) << uint(order)
	mem := t.k.Mem
	pos := t.pos &^ (size - 1)
	for pos >= size && pos-size >= limit {
		cand := pos - size
		if mem.AllocatedInRange(cand, size) == 0 {
			if err := t.k.Buddy.AllocSpecific(cand, order, false); err == nil {
				t.pos = cand
				return cand, true
			}
		}
		pos -= size
	}
	t.pos = pos
	return 0, false
}

// takeRun claims len(dst) free frames at the highest available addresses
// that are >= limit, writing them to dst highest first: exactly the frames
// take(0, limit) returns on that many calls, up to the first that finds
// none.
// It returns how many it claimed.
func (t *targetScanner) takeRun(dst []uint64, limit uint64) int {
	n, pos := t.k.Buddy.AllocDown(limit, t.pos, dst)
	t.pos = pos
	return n
}

// Smart is Trident's region-counter-guided compactor (always 1GB-targeted).
type Smart struct {
	K *kernel.Kernel
	Stats
	// OnPvMove, if set, replaces the data copy of each 2MB-granule move
	// with a Trident_pv gPA↔hPA exchange: the guest still rewrites its own
	// mapping (source→dest), but instead of copying, the hypervisor swaps
	// the host frames behind source and dest (§6: "Besides promotion,
	// Trident_pv uses the same hypercall for compacting guest physical
	// memory"). The callback receives the source and destination gPAs.
	// 4KB moves are still copied — the exchange only pays off at 2MB.
	OnPvMove func(srcGPA, dstGPA uint64)
	// PagesExchanged counts moves that went through OnPvMove.
	PagesExchanged uint64
	// Abort, if set, is consulted before each page move; returning true
	// abandons the attempt (copies already done are accounted as wasted,
	// matching the unmovable-page-appeared-mid-run failure mode). The
	// chaos injector uses it.
	Abort func() bool
	// OnAttempt, if set, observes each Compact call: the bytes it copied
	// and whether a 1GB chunk was available afterwards. The observability
	// layer uses it; nil in ordinary runs.
	OnAttempt func(copiedBytes uint64, ok bool)

	// targets is compact's target-region list, reused by every attempt.
	targets []regionFree
}

// NewSmart creates a smart compactor over k.
func NewSmart(k *kernel.Kernel) *Smart { return &Smart{K: k} }

// Compact tries to create one free 1GB chunk, returning whether one is
// available afterwards. It selects (not scans for) the source region with
// the most free frames and no unmovable contents, and packs its pages into
// the fullest other regions.
func (c *Smart) Compact() bool {
	before := c.BytesCopied
	ok := c.compact()
	if c.OnAttempt != nil {
		c.OnAttempt(c.BytesCopied-before, ok)
	}
	return ok
}

func (c *Smart) compact() bool {
	c.Attempts++
	if c.K.Buddy.FreeBytesAtOrder(units.Order1G) > 0 {
		c.Successes++
		return true
	}
	mem := c.K.Mem
	nRegions := mem.NumRegions()
	c.Nanoseconds += float64(nRegions) * scanNsPerFrame // counter inspection

	source := -1
	var bestFree uint64
	for r := uint64(0); r < nRegions; r++ {
		st := mem.Region(r)
		if st.Unmovable > 0 {
			continue
		}
		if st.Free == units.FramesPerRegion {
			// A fully free region exists but is not coalesced as one chunk
			// (cannot happen with buddy coalescing, but be defensive).
			continue
		}
		if source == -1 || st.Free > bestFree {
			source, bestFree = int(r), st.Free
		}
	}
	if source == -1 {
		return false
	}
	// Order candidate target regions by ascending free count (fullest
	// first), excluding the source.
	if cap(c.targets) < int(nRegions) {
		c.targets = make([]regionFree, 0, nRegions)
	}
	targets := c.targets[:0]
	var targetFree uint64
	for r := uint64(0); r < nRegions; r++ {
		if int(r) == source {
			continue
		}
		if f := mem.Region(r).Free; f > 0 {
			targets = append(targets, regionFree{r, f})
			targetFree += f
		}
	}
	// Fail fast — the region counters already tell us whether the source's
	// occupied pages can fit elsewhere at all (no data movement wasted,
	// unlike the normal compactor).
	if targetFree < units.FramesPerRegion-bestFree {
		return false
	}
	// The order is total (regions are distinct), so any sort gives the same
	// list; slices.SortFunc sorts without allocating.
	slices.SortFunc(targets, func(a, b regionFree) int {
		if a.free != b.free {
			return cmp.Compare(a.free, b.free)
		}
		return cmp.Compare(a.r, b.r)
	})

	tf := &regionTargets{k: c.K, regions: targets}
	base := uint64(source) * units.FramesPerRegion
	var copied uint64
	for f := base; f < base+units.FramesPerRegion; {
		if !mem.IsAllocated(f) {
			f++
			continue
		}
		if c.Abort != nil && c.Abort() {
			c.BytesWasted += copied
			c.BytesCopied += copied
			return false
		}
		task, o, head, ok := c.K.OwnerTask(f)
		if !ok || o.Size == units.Size1G {
			// Source regions are chosen with Unmovable == 0, so this is an
			// unowned movable page (or a full-region 1GB page, impossible
			// with Free > 0): abandon.
			c.BytesWasted += copied
			c.BytesCopied += copied
			return false
		}
		dest, ok := tf.take(o.Size.Order())
		if !ok && o.Size == units.Size2M {
			// No 2MB-contiguous space in any target: split the huge page
			// and migrate it as base pages, as Linux migration does when a
			// huge target cannot be allocated.
			if err := c.K.DemotePage(task, o.VA); err == nil {
				c.Nanoseconds += 512 * perfmodel.PTEUpdateNs
				continue // revisit frame f, now 4KB-mapped
			}
		}
		if !ok {
			c.BytesWasted += copied
			c.BytesCopied += copied
			return false
		}
		old, err := c.K.MovePage(task, o.VA, o.Size, dest)
		if err != nil {
			c.K.Buddy.Free(dest, o.Size.Order())
			c.BytesWasted += copied
			c.BytesCopied += copied
			return false
		}
		c.K.Buddy.Free(old, o.Size.Order())
		c.PagesMoved++
		if c.OnPvMove != nil && o.Size == units.Size2M {
			// Copy-less: the hypervisor exchanges the frames behind the old
			// and new guest-physical locations.
			c.OnPvMove(units.FrameAddr(head), units.FrameAddr(dest))
			c.PagesExchanged++
			c.Nanoseconds += perfmodel.ExchangeBatchedNs + perfmodel.PTEUpdateNs
		} else {
			copied += o.Size.Bytes()
			c.Nanoseconds += perfmodel.CopyNs(o.Size.Bytes()) + perfmodel.PTEUpdateNs
		}
		f = head + o.Size.Frames()
	}
	c.BytesCopied += copied
	if c.K.Buddy.FreeBytesAtOrder(units.Order1G) > 0 {
		c.Successes++
		return true
	}
	return false
}

// regionFree pairs a region index with its free-frame count for target
// ordering.
type regionFree struct {
	r    uint64
	free uint64
}

// regionTargets allocates destination frames inside the fullest regions.
// Each allocation order keeps its own scan cursor: exhausting the search
// for (say) 2MB-contiguous space must not starve later 4KB requests.
type regionTargets struct {
	k       *kernel.Kernel
	regions []regionFree
	cursors [units.Order1G]targetCursor // by order: 1GB pages never move
}

type targetCursor struct {
	idx    int
	cursor uint64 // next frame to inspect within regions[idx]
}

func (t *regionTargets) take(order int) (uint64, bool) {
	cur := &t.cursors[order]
	size := uint64(1) << uint(order)
	for cur.idx < len(t.regions) {
		base := t.regions[cur.idx].r * units.FramesPerRegion
		// Regions are ordered by occupancy, not address: reset the cursor
		// whenever it lies outside the current region.
		if cur.cursor < base || cur.cursor >= base+units.FramesPerRegion {
			cur.cursor = base
		}
		pos := units.AlignUp(cur.cursor, size)
		for pos+size <= base+units.FramesPerRegion {
			free := false
			if order == 0 {
				free = !t.k.Mem.IsAllocated(pos)
			} else {
				free = t.k.Mem.AllocatedInRange(pos, size) == 0
			}
			if free {
				if err := t.k.Buddy.AllocSpecific(pos, order, false); err == nil {
					cur.cursor = pos + size
					return pos, true
				}
			}
			pos += size
		}
		cur.idx++
		cur.cursor = 0
	}
	return 0, false
}
