// Package buddy implements the binary buddy allocator that manages physical
// frames, in two flavours:
//
//   - stock Linux: free lists track chunks up to order 10 (4MB), the limit the
//     paper calls out in §5 ("Linux tracks only up to 4MB free physical memory
//     chunks");
//   - Trident: free lists extended to order 18 (1GB) so that 1GB pages can be
//     allocated directly from the fast path (§5.1.1).
//
// Allocation always returns the lowest-addressed suitable chunk, which makes
// every simulation run deterministic. Frees coalesce with buddies exactly as
// in Linux. The allocator is the single authority over frame state and keeps
// phys.Memory's bitmaps and per-region counters in sync on every operation.
package buddy

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/phys"
	"repro/internal/units"
)

// ErrNoMemory is returned when no free chunk of the requested order exists
// (the equivalent of Linux's allocation failure that triggers compaction).
var ErrNoMemory = errors.New("buddy: no contiguous chunk of requested order")

// Allocator is a binary buddy allocator over a phys.Memory.
type Allocator struct {
	mem      *phys.Memory
	maxOrder int

	// freeOrder[pfn>>foChunkBits][pfn&(foChunkSize-1)] holds order+1 for
	// the free chunk headed at pfn, or 0 if pfn is not the head of a free
	// chunk. Chunks materialize on first write: a nil chunk means "no write
	// since New", whose contents are the deterministic initial tiling (the
	// maxOrder-aligned heads hold maxOrder+1, everything else 0), so reads
	// reconstruct them without ever allocating. Regions of physical memory
	// the run never touches therefore cost no allocation or zeroing — at
	// full machine scale the flat array was tens of MB of memclr per
	// kernel construction.
	freeOrder [][]int8

	// free holds the free-chunk heads per order as exact bitmaps over chunk
	// indexes (pfn >> order), replacing the earlier lazy-deletion min-heap:
	// insert/remove are single bit operations, and pop scans words upward
	// from a per-order cursor — "lowest-addressed chunk first" falls out of
	// bit order, so the allocation sequence (and with it every simulated
	// run) is bit-identical to the heap version's.
	free []freeList

	// counts are the live free-chunk counts per order.
	counts []uint64

	// covered is CheckInvariants's reusable coverage bitset (one bit per
	// frame), sized and cleared per call and reallocated only to grow; the
	// map it replaced allocated per invocation on every fragmentation
	// snapshot.
	covered []uint64

	// FailAlloc, if set, is consulted on every Alloc and AllocSpecific;
	// returning true forces ErrNoMemory as if no contiguous chunk existed.
	// The chaos injector (internal/chaos) uses it to exercise the
	// allocation-failure fallbacks at chosen rates; it is nil in ordinary
	// runs and costs one nil check.
	FailAlloc func(order int) bool
}

// New creates an allocator over mem with free lists up to maxOrder
// (units.StockMaxOrder for stock Linux, units.TridentMaxOrder for Trident):
// the zero allocator over mem, booted. All memory starts free, tiled with
// maxOrder chunks.
func New(mem *phys.Memory, maxOrder int) *Allocator {
	a := &Allocator{mem: mem}
	a.Boot(maxOrder)
	return a
}

// freeOrder chunking: 1<<16 frames (256MB of physical memory) per chunk.
const (
	foChunkBits = 16
	foChunkSize = 1 << foChunkBits
)

// freeOrderAt reads the order+1 code for pfn. A nil chunk reproduces the
// initial tiling Boot established: maxOrder+1 at maxOrder-aligned heads,
// 0 elsewhere.
func (a *Allocator) freeOrderAt(pfn uint64) int8 {
	if c := a.freeOrder[pfn>>foChunkBits]; c != nil {
		return c[pfn&(foChunkSize-1)]
	}
	if pfn&(uint64(1)<<uint(a.maxOrder)-1) == 0 {
		return int8(a.maxOrder) + 1
	}
	return 0
}

// setFreeOrder writes the order+1 code for pfn, materializing the chunk
// with the initial tiling pattern on first write.
func (a *Allocator) setFreeOrder(pfn uint64, v int8) {
	ci := pfn >> foChunkBits
	c := a.freeOrder[ci]
	if c == nil {
		c = make([]int8, foChunkSize)
		stamp(c, int(ci), a.maxOrder, int8(a.maxOrder)+1)
		a.freeOrder[ci] = c
	}
	c[pfn&(foChunkSize-1)] = v
}

// stamp writes v at every order-aligned PFN of freeOrder chunk ci, c.
// With v = order+1 over a cleared chunk, that is the initial tiling
// pattern of max order order; it depends only on the chunk's index, not on
// the memory size, since memory is a whole number of chunks.
func stamp(c []int8, ci, order int, v int8) {
	align := uint64(1) << uint(order)
	base := uint64(ci) << foChunkBits
	for p := (base + align - 1) &^ (align - 1); p < base+foChunkSize; p += align {
		c[p-base] = v
	}
}

// tile puts the maxOrder chunks with indexes [from, to) on the free
// bitmap. Their freeOrder side is the initial tiling pattern, which every
// chunk holds from materialization or Reset on.
func (a *Allocator) tile(from, to uint64) {
	w := a.free[a.maxOrder].words
	for idx := from; idx < to; idx++ {
		w[idx>>6] |= 1 << (idx & 63)
	}
	a.counts[a.maxOrder] += to - from
}

// Reset returns the allocator to its post-Boot state — all memory free,
// tiled with maxOrder chunks — while retaining the allocated backing:
// materialized freeOrder chunks are rewritten to the initial tiling
// pattern (reads through them are then identical to reads through the nil
// chunks New leaves), the free bitmaps are cleared and re-seeded, and the
// per-run FailAlloc hook is dropped so a pooled allocator cannot carry a
// stale chaos injector into its next run. The caller must Reset the
// underlying phys.Memory alongside (the kernel's Reset does) to keep the
// two views consistent.
func (a *Allocator) Reset() {
	for ci, c := range a.freeOrder {
		if c != nil {
			clear(c)
			stamp(c, ci, a.maxOrder, int8(a.maxOrder)+1)
		}
	}
	for o := range a.free {
		clear(a.free[o].words)
		a.free[o].cursor = 0
		a.counts[o] = 0
	}
	a.tile(0, a.mem.Frames()>>uint(a.maxOrder))
	a.FailAlloc = nil
}

// Boot sizes the allocator to its memory's frame count and sets its max
// order, starting from the zero allocator or from the state Reset leaves
// (after a phys.Memory.Boot of the memory), so that it is observably
// identical to New(mem, maxOrder). Only the difference is touched:
// bitmap words past the old end are cleared, and the maxOrder tiling
// gains or loses the chunks between the two sizes — or, when the max
// order changes, the old tiling is withdrawn and the new one seeded.
// freeOrder chunks past the old end are reused as they are, which rests on
// one invariant: every materialized chunk, including those in spare
// capacity past len, holds the tiling pattern of the current max order.
// Reset keeps it inside the memory, and a change of max order rewrites
// the pattern in freeOrder[:cap].
func (a *Allocator) Boot(maxOrder int) {
	if maxOrder < units.Order2M || maxOrder > units.TridentMaxOrder {
		panic(fmt.Sprintf("buddy: unsupported max order %d", maxOrder))
	}
	frames := a.mem.Frames()
	oldChunks := uint64(len(a.freeOrder)) << foChunkBits >> uint(a.maxOrder)
	newChunks := frames >> uint(maxOrder)
	var keep uint64 // tiling chunks that stay free as they are
	if a.counts != nil {
		if a.counts[a.maxOrder] != oldChunks {
			panic("buddy: Boot of an allocator that is not Reset")
		}
		if maxOrder == a.maxOrder {
			keep = min(oldChunks, newChunks)
		}
		w := a.free[a.maxOrder].words
		for idx := keep; idx < oldChunks; idx++ {
			w[idx>>6] &^= 1 << (idx & 63)
		}
		a.counts[a.maxOrder] = keep
	}
	a.freeOrder = phys.Resized(a.freeOrder, int((frames+foChunkSize-1)>>foChunkBits))
	if maxOrder != a.maxOrder {
		for ci, c := range a.freeOrder[:cap(a.freeOrder)] {
			if c != nil {
				stamp(c, ci, a.maxOrder, 0)
				stamp(c, ci, maxOrder, int8(maxOrder)+1)
			}
		}
	}
	a.maxOrder = maxOrder
	a.free = phys.Resized(a.free, maxOrder+1)
	a.counts = phys.Resized(a.counts, maxOrder+1)
	for o := range a.free {
		fl := &a.free[o]
		fl.words = phys.ResizedZero(fl.words, int((frames>>uint(o)+63)/64))
	}
	a.tile(keep, newChunks)
}

// MaxOrder returns the largest order the free lists track.
func (a *Allocator) MaxOrder() int { return a.maxOrder }

// Memory returns the underlying physical memory bookkeeping.
func (a *Allocator) Memory() *phys.Memory { return a.mem }

// FreeChunks returns the number of free chunks of exactly the given order.
func (a *Allocator) FreeChunks(order int) uint64 { return a.counts[order] }

// FreeFrames returns the total number of free frames.
func (a *Allocator) FreeFrames() uint64 { return a.mem.FreeFrames() }

// Alloc allocates a 2^order-frame chunk and returns its head PFN.
// unmovable marks the chunk as holding unmovable (kernel) data, which feeds
// Trident's per-region unmovable counters.
func (a *Allocator) Alloc(order int, unmovable bool) (uint64, error) {
	if order < 0 || order > a.maxOrder {
		return 0, fmt.Errorf("buddy: invalid order %d", order)
	}
	if a.FailAlloc != nil && a.FailAlloc(order) {
		return 0, ErrNoMemory
	}
	from := -1
	for o := order; o <= a.maxOrder; o++ {
		if a.counts[o] > 0 {
			from = o
			break
		}
	}
	if from == -1 {
		return 0, ErrNoMemory
	}
	pfn := a.popFree(from)
	// Split down, returning the upper halves to the free lists.
	for o := from; o > order; o-- {
		half := uint64(1) << uint(o-1)
		a.insertFree(pfn+half, o-1)
	}
	a.mem.MarkAllocated(pfn, uint64(1)<<uint(order), unmovable)
	return pfn, nil
}

// AllocRun allocates up to max movable order-0 frames as one contiguous run
// [pfn, pfn+n): exactly the frames, in order, that the next n calls of
// Alloc(0, false) would return, leaving the free lists as those calls
// would. Those calls take the smallest free chunk's frames in address
// order (each split hands its lowest frame out and leaves the rest of the
// chunk on the lower lists, and the next call finds them there), so a run
// ends at max or at the end of that chunk, and the chunk's untaken tail
// goes back as its maximal aligned blocks. FailAlloc is consulted once per
// frame, before it is taken; err is ErrNoMemory when the call for frame
// pfn+n (FailAlloc, or no free memory) would have failed, and the caller
// must then not ask again for that frame. err is nil when n is max or the
// chunk ran out.
func (a *Allocator) AllocRun(max uint64) (pfn, n uint64, err error) {
	if max == 0 {
		return 0, 0, nil
	}
	if a.FailAlloc != nil && a.FailAlloc(0) {
		return 0, 0, ErrNoMemory
	}
	from := 0
	for from <= a.maxOrder && a.counts[from] == 0 {
		from++
	}
	if from > a.maxOrder {
		return 0, 0, ErrNoMemory
	}
	n = min(max, uint64(1)<<uint(from))
	if a.FailAlloc != nil {
		for i := uint64(1); i < n; i++ {
			if a.FailAlloc(0) {
				n, err = i, ErrNoMemory
				break
			}
		}
	}
	pfn = a.popFree(from)
	for pos, end := pfn+n, pfn+uint64(1)<<uint(from); pos < end; {
		o := bits.TrailingZeros64(pos) // < from: pfn is 2^from-aligned
		a.insertFree(pos, o)
		pos += uint64(1) << uint(o)
	}
	a.mem.MarkAllocated(pfn, n, false)
	return pfn, n, err
}

// AllocSpecific allocates the exact chunk [pfn, pfn+2^order), which must lie
// entirely inside a free chunk. It is used by compaction to claim target
// frames inside a chosen region. Returns ErrNoMemory if the range is not
// entirely free.
func (a *Allocator) AllocSpecific(pfn uint64, order int, unmovable bool) error {
	if order < 0 || order > a.maxOrder {
		return fmt.Errorf("buddy: invalid order %d", order)
	}
	if !units.IsAligned(pfn, uint64(1)<<uint(order)) {
		return fmt.Errorf("buddy: pfn %d not aligned to order %d", pfn, order)
	}
	if a.FailAlloc != nil && a.FailAlloc(order) {
		return ErrNoMemory
	}
	// Find the free chunk covering pfn.
	cover := -1
	var head uint64
	for o := order; o <= a.maxOrder; o++ {
		h := pfn &^ ((uint64(1) << uint(o)) - 1)
		if int(a.freeOrderAt(h)) == o+1 {
			cover = o
			head = h
			break
		}
	}
	if cover == -1 {
		return ErrNoMemory
	}
	a.removeFree(head, cover)
	// Split repeatedly, freeing the half that does not contain the target.
	for o := cover; o > order; o-- {
		half := uint64(1) << uint(o-1)
		if pfn < head+half {
			a.insertFree(head+half, o-1)
		} else {
			a.insertFree(head, o-1)
			head += half
		}
	}
	a.mem.MarkAllocated(pfn, uint64(1)<<uint(order), unmovable)
	return nil
}

// Carve allocates, as movable, every frame of the free chunk
// [head, head+2^order) whose bit in free (a bitmap indexed by PFN) is
// clear, and leaves the frames whose bit is set free. The free lists end
// exactly as AllocSpecific(pfn, 0, false) on each of those frames, in any
// order, would leave them: each such call splits the chunk covering its
// frame and frees the halves that miss it, so afterwards a block of the
// chunk is on a free list iff it is wholly free and its parent block is
// not — the chunk's free frames decomposed into maximal aligned blocks,
// which carveFree inserts directly (DESIGN.md §5c). Surviving frames are
// marked a word at a time. Unlike AllocSpecific, Carve does not consult
// FailAlloc.
func (a *Allocator) Carve(head uint64, order int, free []uint64) {
	a.removeFree(head, order) // panics unless (head, order) is a free chunk
	if a.carveFree(head, order, free) {
		a.insertFree(head, order) // every frame stays free: so does the chunk
		return
	}
	a.mem.MarkAllocatedExcept(head, uint64(1)<<uint(order), free)
}

// carveFree reports whether every frame of [head, head+2^order) is free in
// free; if not, it inserts the block's free frames as maximal aligned
// blocks. Up to order 6 a block lies inside one bitmap word and is decided
// with bit arithmetic; above, the halves recurse down to whole words.
func (a *Allocator) carveFree(head uint64, order int, free []uint64) bool {
	if order > 6 {
		half := uint64(1) << uint(order-1)
		lo := a.carveFree(head, order-1, free)
		hi := a.carveFree(head+half, order-1, free)
		if lo && hi {
			return true
		}
		if lo {
			a.insertFree(head, order-1)
		}
		if hi {
			a.insertFree(head+half, order-1)
		}
		return false
	}
	n := uint(1) << uint(order)
	// full[o] has bit b set iff the order-o block at head+b (b a multiple
	// of 2^o) is wholly free.
	var full [7]uint64
	full[0] = free[head/64] >> (head % 64)
	if n < 64 {
		full[0] &= 1<<n - 1
	}
	for o := 0; o < order; o++ {
		full[o+1] = full[o] & (full[o] >> (1 << uint(o))) & alignedBits[o+1]
	}
	if full[order]&1 != 0 {
		return true
	}
	for o := 0; o < order; o++ {
		parent := full[o+1] | full[o+1]<<(1<<uint(o))
		for blocks := full[o] &^ parent; blocks != 0; blocks &= blocks - 1 {
			a.insertFree(head+uint64(bits.TrailingZeros64(blocks)), o)
		}
	}
	return false
}

// alignedBits[o] has every bit whose index is a multiple of 2^o.
var alignedBits = [7]uint64{
	^uint64(0),
	0x5555555555555555,
	0x1111111111111111,
	0x0101010101010101,
	0x0001000100010001,
	0x0000000100000001,
	0x0000000000000001,
}

// Free releases the chunk [pfn, pfn+2^order), coalescing with free buddies.
func (a *Allocator) Free(pfn uint64, order int) {
	if order < 0 || order > a.maxOrder {
		panic(fmt.Sprintf("buddy: invalid order %d", order))
	}
	if !units.IsAligned(pfn, uint64(1)<<uint(order)) {
		panic(fmt.Sprintf("buddy: free of misaligned pfn %d order %d", pfn, order))
	}
	a.mem.MarkFree(pfn, uint64(1)<<uint(order)) // panics on double free
	for order < a.maxOrder {
		buddyPfn := pfn ^ (uint64(1) << uint(order))
		if buddyPfn >= a.mem.Frames() || int(a.freeOrderAt(buddyPfn)) != order+1 {
			break
		}
		a.removeFree(buddyPfn, order)
		if buddyPfn < pfn {
			pfn = buddyPfn
		}
		order++
	}
	a.insertFree(pfn, order)
}

// FMFI returns the Free Memory Fragmentation Index for the given order: the
// fraction of free memory that is unusable for an allocation of that order
// (Gorman's unusable-free-space index, the metric the paper adopts from
// Ingens [36]; 0 = no fragmentation, 1 = fully fragmented).
func (a *Allocator) FMFI(order int) float64 {
	totalFree := a.mem.FreeFrames()
	if totalFree == 0 {
		return 1
	}
	var usable uint64
	for o := order; o <= a.maxOrder; o++ {
		usable += a.counts[o] << uint(o)
	}
	return float64(totalFree-usable) / float64(totalFree)
}

// FreeBytesAtOrder returns the bytes of free memory held in chunks of at
// least the given order.
func (a *Allocator) FreeBytesAtOrder(order int) uint64 {
	var frames uint64
	for o := order; o <= a.maxOrder; o++ {
		frames += a.counts[o] << uint(o)
	}
	return frames * units.Page4K
}

// FreeChunkHeads returns the head PFNs of all live free chunks of exactly
// the given order, in ascending address order. Intended for tests and
// diagnostics; O(bitmap words).
func (a *Allocator) FreeChunkHeads(order int) []uint64 {
	var heads []uint64
	for w, word := range a.free[order].words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			heads = append(heads, (uint64(w)*64+uint64(b))<<uint(order))
		}
	}
	// The bitmap is exact and scanned in address order: already sorted,
	// no duplicates.
	return heads
}

// freeList is one order's free-chunk-head bitmap. Bit i set means the chunk
// headed at pfn i<<order is free at this order. cursor is the index of the
// lowest word that may contain a set bit: inserts lower it, pops advance it,
// and removals only ever raise the true minimum, so it stays a valid lower
// bound without maintenance.
type freeList struct {
	words  []uint64
	cursor int
}

func (a *Allocator) insertFree(pfn uint64, order int) {
	a.setFreeOrder(pfn, int8(order)+1)
	idx := pfn >> uint(order)
	fl := &a.free[order]
	w := int(idx >> 6)
	fl.words[w] |= 1 << (idx & 63)
	if w < fl.cursor {
		fl.cursor = w
	}
	a.counts[order]++
}

// popFree removes and returns the lowest-addressed free chunk of the order.
func (a *Allocator) popFree(order int) uint64 {
	fl := &a.free[order]
	for w := fl.cursor; w < len(fl.words); w++ {
		word := fl.words[w]
		if word == 0 {
			continue
		}
		fl.cursor = w
		b := bits.TrailingZeros64(word)
		fl.words[w] = word &^ (1 << uint(b))
		pfn := (uint64(w)*64 + uint64(b)) << uint(order)
		a.setFreeOrder(pfn, 0)
		a.counts[order]--
		return pfn
	}
	panic(fmt.Sprintf("buddy: count says order %d has free chunks but bitmap is empty", order))
}

// removeFree removes a specific chunk from its free list.
func (a *Allocator) removeFree(pfn uint64, order int) {
	if int(a.freeOrderAt(pfn)) != order+1 {
		panic(fmt.Sprintf("buddy: removeFree(%d, %d) but freeOrder is %d",
			pfn, order, int(a.freeOrderAt(pfn))-1))
	}
	a.setFreeOrder(pfn, 0)
	idx := pfn >> uint(order)
	a.free[order].words[idx>>6] &^= 1 << (idx & 63)
	a.counts[order]--
}

// CheckInvariants verifies internal consistency (used by tests): every free
// chunk head is aligned and carries its order in freeOrder, chunks do not
// overlap, and the free-frame total matches phys.Memory. It returns an
// error describing the first violation.
func (a *Allocator) CheckInvariants() error {
	var freeFrames uint64
	a.covered = phys.ResizedZero(a.covered[:0], int((a.mem.Frames()+63)/64))
	for order := 0; order <= a.maxOrder; order++ {
		heads := a.FreeChunkHeads(order)
		if uint64(len(heads)) != a.counts[order] {
			return fmt.Errorf("order %d: %d heads vs count %d", order, len(heads), a.counts[order])
		}
		for _, pfn := range heads {
			size := uint64(1) << uint(order)
			if !units.IsAligned(pfn, size) {
				return fmt.Errorf("order %d chunk at %d misaligned", order, pfn)
			}
			if got := int(a.freeOrderAt(pfn)) - 1; got != order {
				return fmt.Errorf("order %d chunk at %d has freeOrder %d", order, pfn, got)
			}
			for f := pfn; f < pfn+size; f++ {
				if a.covered[f/64]&(1<<(f%64)) != 0 {
					return fmt.Errorf("frame %d covered by two free chunks", f)
				}
				a.covered[f/64] |= 1 << (f % 64)
				if a.mem.IsAllocated(f) {
					return fmt.Errorf("frame %d free in buddy but allocated in phys", f)
				}
			}
			freeFrames += size
		}
	}
	if freeFrames != a.mem.FreeFrames() {
		return fmt.Errorf("buddy free %d != phys free %d", freeFrames, a.mem.FreeFrames())
	}
	return nil
}
