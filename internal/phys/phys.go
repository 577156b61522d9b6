// Package phys models the machine's physical memory as pure bookkeeping:
// which 4KB frames are allocated, which hold unmovable (kernel) data, who
// maps each frame, and — central to Trident's smart compaction (§5.1.3) —
// two counters per 1GB region:
//
//   - the number of free frames in the region, and
//   - the number of frames holding unmovable data.
//
// The paper maintains exactly these counters in the buddy allocator's
// alloc/free paths; here they are updated by MarkAllocated/MarkFree, which
// the buddy allocator (package buddy) calls on every allocation and free.
//
// No data bytes are stored: every quantity the paper measures (bytes copied
// by compaction, pages promoted, TLB behaviour, allocation failures) depends
// only on which frames are in use, not on their contents.
package phys

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/units"
)

// Owner records which virtual mapping covers a physical page, so that
// compaction can rewrite the owning page-table entry after moving the page.
// It is the simulator's equivalent of Linux's reverse map (rmap).
type Owner struct {
	// Space identifies the owning address space (assigned by the kernel;
	// 0 is reserved for "no owner").
	Space uint32
	// VA is the virtual address the mapping starts at.
	VA uint64
	// Size is the page size of the mapping.
	Size units.PageSize
}

// RegionStats are Trident's per-1GB-region counters.
type RegionStats struct {
	// Free is the number of free 4KB frames in the region.
	Free uint64
	// Unmovable is the number of allocated frames holding unmovable data
	// (kernel objects, DMA buffers, page-cache metadata...). A region with
	// Unmovable > 0 can never be fully freed by compaction.
	Unmovable uint64
	// Zeroed reports that the whole (fully free) region has been zero-filled
	// by the asynchronous zero-fill daemon (§5.1.2) and not touched since.
	// Any allocation in the region clears it.
	Zeroed bool
}

// Memory is the bookkeeping view of physical memory.
type Memory struct {
	frames    uint64 // total number of 4KB frames
	regions   []RegionStats
	allocated bitset
	unmovable bitset

	// The reverse map, kept by 2MB block (512 frames): each owner is one
	// packed word (see pack), 0 meaning none. heads[b] holds the owner of
	// the 2MB or 1GB mapping headed at block b's first frame. leaves[b]
	// holds the owners of the 4KB mappings headed in block b, one word per
	// frame; it is materialized only while live[b], their number, is
	// positive, so a population of huge pages materializes none. An
	// emptied leaf returns, all zero, to leafFree; slab is the uncarved
	// rest of the last slab of leaves, so that after warm-up mapping and
	// unmapping allocate nothing.
	heads    []uint64
	leaves   []*[blockFrames]uint64
	live     []uint16
	leafFree []*[blockFrames]uint64
	slab     [][blockFrames]uint64

	allocFrames uint64
}

// NewMemory creates the bookkeeping for a machine with the given physical
// memory size, which must be a positive multiple of 1GB (regions must tile
// memory exactly, as in the paper's region-counter design): the zero
// Memory, booted.
func NewMemory(bytes uint64) *Memory {
	m := new(Memory)
	m.Boot(bytes)
	return m
}

// Reset returns the bookkeeping to its post-Boot state — all frames
// free and movable, no owners, no zeroed regions — while retaining the
// allocated backing (bitsets, the reverse map's block arrays, and its
// leaves, cleared onto the free list). A reset Memory is observably
// identical to a fresh one: no block heads a mapping and no leaf is
// materialized. The machine pool (internal/sim) uses this to reuse
// kernels across runs.
func (m *Memory) Reset() {
	for i := range m.regions {
		m.regions[i] = RegionStats{Free: units.FramesPerRegion}
	}
	clear(m.allocated)
	clear(m.unmovable)
	clear(m.heads)
	for b, l := range m.leaves {
		if l != nil {
			clear(l[:])
			m.leafFree = append(m.leafFree, l)
			m.leaves[b] = nil
		}
	}
	clear(m.live)
	m.allocFrames = 0
}

// Boot sizes a Memory with every frame free — the zero Memory, or the
// state Reset leaves — to bytes, which must be a positive multiple of
// 1GB. A booted Memory is observably identical to NewMemory(bytes), and
// only the difference is touched: growing reuses spare capacity,
// initializing the regions, bitset words and reverse-map blocks it exposes
// whatever they hold; shrinking reslices. Free leaves stay on the free
// list whatever the size.
func (m *Memory) Boot(bytes uint64) {
	if bytes == 0 || bytes%units.Page1G != 0 {
		panic(fmt.Sprintf("phys: memory size %d is not a positive multiple of 1GB", bytes))
	}
	if m.allocFrames != 0 {
		panic("phys: Boot of a memory with allocated frames")
	}
	oldRegions := len(m.regions)
	m.frames = bytes / units.Page4K
	m.regions = Resized(m.regions, int(bytes/units.Page1G))
	for i := oldRegions; i < len(m.regions); i++ {
		m.regions[i] = RegionStats{Free: units.FramesPerRegion}
	}
	m.allocated = ResizedZero(m.allocated, int((m.frames+63)/64))
	m.unmovable = ResizedZero(m.unmovable, len(m.allocated))
	blocks := int(m.frames >> blockBits)
	m.heads = ResizedZero(m.heads, blocks)
	m.leaves = ResizedZero(m.leaves, blocks)
	m.live = ResizedZero(m.live, blocks)
}

// Resized returns s with length n, keeping its first min(len(s), n)
// elements. Growing within capacity exposes the elements past len(s) as
// they were left; growing beyond it keeps them too and zero-fills the
// rest. The frame-indexed arenas of a pooled machine are resized with it.
func Resized[S ~[]E, E any](s S, n int) S {
	if n > cap(s) {
		s = slices.Grow(s[:cap(s)], n-cap(s))
	}
	return s[:n]
}

// ResizedZero is Resized with every element a grow exposes zeroed.
func ResizedZero[S ~[]E, E any](s S, n int) S {
	old, spare := len(s), cap(s)
	s = Resized(s, n)
	if n > old {
		clear(s[old:min(n, spare)]) // Resized zero-fills past the spare capacity
	}
	return s
}

// Bytes returns the total physical memory size.
func (m *Memory) Bytes() uint64 { return m.frames * units.Page4K }

// Frames returns the total number of 4KB frames.
func (m *Memory) Frames() uint64 { return m.frames }

// NumRegions returns the number of 1GB regions.
func (m *Memory) NumRegions() uint64 { return uint64(len(m.regions)) }

// Region returns the counters for 1GB region r.
func (m *Memory) Region(r uint64) RegionStats { return m.regions[r] }

// SetRegionZeroed marks region r as zero-filled. The region must be fully
// free; the flag clears automatically on any allocation in the region.
func (m *Memory) SetRegionZeroed(r uint64) {
	if m.regions[r].Free != units.FramesPerRegion {
		panic(fmt.Sprintf("phys: SetRegionZeroed on non-free region %d", r))
	}
	m.regions[r].Zeroed = true
}

// FreeFrames returns the machine-wide count of free frames.
func (m *Memory) FreeFrames() uint64 { return m.frames - m.allocFrames }

// AllocatedFrames returns the machine-wide count of allocated frames.
func (m *Memory) AllocatedFrames() uint64 { return m.allocFrames }

// UnmovableFrames returns the machine-wide count of unmovable frames, the
// sum of the region counters. Only tests ask for it.
func (m *Memory) UnmovableFrames() (n uint64) {
	for _, r := range m.regions {
		n += r.Unmovable
	}
	return n
}

// IsAllocated reports whether frame pfn is allocated.
func (m *Memory) IsAllocated(pfn uint64) bool { return m.allocated.get(pfn) }

// IsUnmovable reports whether frame pfn holds unmovable data.
func (m *Memory) IsUnmovable(pfn uint64) bool { return m.unmovable.get(pfn) }

// MarkAllocated records that frames [pfn, pfn+count) transitioned from free
// to allocated, updating the per-region counters. The buddy allocator calls
// this on every allocation. Frames must currently be free.
func (m *Memory) MarkAllocated(pfn, count uint64, unmovable bool) {
	m.checkRange(pfn, count)
	m.allocated.setRange(pfn, count, "allocation")
	if unmovable {
		m.unmovable.setRange(pfn, count, "unmovable mark")
	}
	// Region counters, one region at a time: buddy chunks are aligned
	// power-of-two runs, so a range covers whole regions or part of one.
	for f := pfn; f < pfn+count; {
		r := units.RegionOfFrame(f)
		end := (r + 1) * units.FramesPerRegion
		if end > pfn+count {
			end = pfn + count
		}
		m.regions[r].Free -= end - f
		m.regions[r].Zeroed = false
		if unmovable {
			m.regions[r].Unmovable += end - f
		}
		f = end
	}
	m.allocFrames += count
}

// MarkAllocatedExcept is MarkAllocated(f, 1, false) for every frame f in
// [pfn, pfn+count) whose bit in keepFree (a bitmap indexed by frame) is
// clear, done a word at a time: the buddy allocator's carve marks a
// chunk's surviving frames with it. Those frames must currently be free.
func (m *Memory) MarkAllocatedExcept(pfn, count uint64, keepFree []uint64) {
	m.checkRange(pfn, count)
	for w := pfn / 64; w <= (pfn+count-1)/64; w++ {
		mask := ^keepFree[w] & rangeMask(w, pfn, count)
		if hit := m.allocated[w] & mask; hit != 0 {
			panic(fmt.Sprintf("phys: double allocation of frame %d", w*64+uint64(bits.TrailingZeros64(hit))))
		}
		if mask == 0 {
			continue
		}
		m.allocated[w] |= mask
		n := uint64(bits.OnesCount64(mask))
		r := &m.regions[units.RegionOfFrame(w*64)] // a word never straddles a region
		r.Free -= n
		r.Zeroed = false
		m.allocFrames += n
	}
}

// MarkFree records that frames [pfn, pfn+count) transitioned from allocated
// to free. Any owner registered at pfn is cleared; owners registered at
// interior frames must have been cleared by the caller first.
func (m *Memory) MarkFree(pfn, count uint64) {
	m.checkRange(pfn, count)
	m.allocated.clearRange(pfn, count, "free")
	for b := pfn >> blockBits; b <= (pfn+count-1)>>blockBits; b++ {
		base := b << blockBits
		if base >= pfn {
			m.heads[b] = 0
		}
		if l := m.leaves[b]; l != nil {
			lo, hi := max(base, pfn)-base, min(base+blockFrames, pfn+count)-base
			for i := lo; i < hi; i++ {
				if l[i] != 0 {
					l[i] = 0
					m.live[b]--
				}
			}
			if m.live[b] == 0 {
				m.releaseLeaf(b)
			}
		}
	}
	for f := pfn; f < pfn+count; {
		r := units.RegionOfFrame(f)
		end := (r + 1) * units.FramesPerRegion
		if end > pfn+count {
			end = pfn + count
		}
		m.regions[r].Free += end - f
		if u := m.unmovable.countRange(f, end-f); u > 0 {
			m.unmovable.clearAll(f, end-f)
			m.regions[r].Unmovable -= u
		}
		f = end
	}
	m.allocFrames -= count
}

// Reverse-map geometry and owner packing. A block is 2MB of frames. An
// owner packs into one word, space<<37 | size<<35 | va>>12: spaces are
// dense from 1, so the word is never 0, and user VAs lie below 2^47, so
// va>>12 fits 35 bits. Successive 4KB pages of one mapping run pack to
// successive words.
const (
	blockBits   = 9
	blockFrames = 1 << blockBits

	pageShift  = 12
	vaBits     = 35
	sizeShift  = vaBits
	spaceShift = vaBits + 2
	maxSpace   = 1<<(64-spaceShift) - 1

	// leafSlab is how many 4KB leaves one allocation carves (256KB), so
	// that populating memory allocates a slab per 128MB of 4KB-headed
	// blocks rather than an object per block.
	leafSlab = 64
)

// pack encodes o as a reverse-map word, panicking on an owner that does
// not fit, so no two owners can alias.
func pack(o Owner) uint64 {
	if o.Space == 0 {
		panic("phys: owner space 0 is reserved")
	}
	if o.Space > maxSpace || o.VA >= 1<<(vaBits+pageShift) || o.VA%units.Page4K != 0 ||
		o.Size < units.Size4K || o.Size >= units.NumPageSizes {
		panic(fmt.Sprintf("phys: owner %+v out of range", o))
	}
	return uint64(o.Space)<<spaceShift | uint64(o.Size)<<sizeShift | o.VA>>pageShift
}

func unpack(w uint64) Owner {
	return Owner{
		Space: uint32(w >> spaceShift),
		VA:    (w & (1<<vaBits - 1)) << pageShift,
		Size:  sizeOf(w),
	}
}

func sizeOf(w uint64) units.PageSize { return units.PageSize(w >> sizeShift & 3) }

// word returns the packed owner registered at head frame f, 0 if none.
func (m *Memory) word(f uint64) uint64 {
	if w := m.leaf4K(f); w != 0 || f&(blockFrames-1) != 0 {
		return w
	}
	return m.heads[f>>blockBits]
}

// leaf4K returns the 4KB owner word at frame f, 0 if none.
func (m *Memory) leaf4K(f uint64) uint64 {
	if l := m.leaves[f>>blockBits]; l != nil {
		return l[f&(blockFrames-1)]
	}
	return 0
}

// claim panics unless frame pfn can head a new mapping of the given size:
// aligned to it, allocated and without an owner.
func (m *Memory) claim(pfn uint64, size units.PageSize) {
	if !units.IsAligned(units.FrameAddr(pfn), size.Bytes()) {
		panic(fmt.Sprintf("phys: owner head pfn %d not aligned to %v", pfn, size))
	}
	if !m.allocated.get(pfn) {
		panic(fmt.Sprintf("phys: SetOwner on free frame %d", pfn))
	}
	if m.word(pfn) != 0 {
		panic(fmt.Sprintf("phys: frame %d already has an owner", pfn))
	}
}

// put stores word w at head frame f, which claim has cleared.
func (m *Memory) put(f, w uint64) {
	b := f >> blockBits
	if sizeOf(w) != units.Size4K {
		m.heads[b] = w
		return
	}
	m.leafOf(b)[f&(blockFrames-1)] = w
	m.live[b]++
}

// drop clears the owner at head frame f and returns its word, panicking
// if there is none.
func (m *Memory) drop(f uint64) uint64 {
	b := f >> blockBits
	if l := m.leaves[b]; l != nil && l[f&(blockFrames-1)] != 0 {
		w := l[f&(blockFrames-1)]
		l[f&(blockFrames-1)] = 0
		if m.live[b]--; m.live[b] == 0 {
			m.releaseLeaf(b)
		}
		return w
	}
	if w := m.heads[b]; w != 0 && f&(blockFrames-1) == 0 {
		m.heads[b] = 0
		return w
	}
	panic(fmt.Sprintf("phys: ClearOwner on unowned frame %d", f))
}

// leafOf returns block b's leaf, materializing it from the free list or
// the current slab.
func (m *Memory) leafOf(b uint64) *[blockFrames]uint64 {
	if l := m.leaves[b]; l != nil {
		return l
	}
	var l *[blockFrames]uint64
	if n := len(m.leafFree); n > 0 {
		l = m.leafFree[n-1]
		m.leafFree[n-1] = nil
		m.leafFree = m.leafFree[:n-1]
	} else {
		if len(m.slab) == 0 {
			m.slab = make([][blockFrames]uint64, leafSlab)
		}
		l = &m.slab[0]
		m.slab = m.slab[1:]
	}
	m.leaves[b] = l
	return l
}

// releaseLeaf returns block b's emptied (all-zero) leaf to the free list.
func (m *Memory) releaseLeaf(b uint64) {
	m.leafFree = append(m.leafFree, m.leaves[b])
	m.leaves[b] = nil
}

// SetOwner registers the virtual mapping that covers the page whose head
// frame is pfn. The frames must already be allocated.
func (m *Memory) SetOwner(pfn uint64, o Owner) {
	w := pack(o)
	m.claim(pfn, o.Size)
	m.put(pfn, w)
}

// SetOwners4K registers n 4KB mappings at consecutive VAs over
// consecutive frames: exactly SetOwner(pfn+j, Owner{o.Space,
// o.VA+j*4KB, Size4K}) for j < n, with one pass over each block's leaf.
// o.Size must be Size4K. kernel.MapRun registers a run's owners with it,
// and kernel.AddFilePages a run of page-cache pages.
func (m *Memory) SetOwners4K(pfn, n uint64, o Owner) {
	if n == 0 {
		return
	}
	if o.Size != units.Size4K {
		panic(fmt.Sprintf("phys: SetOwners4K of a %v owner", o.Size))
	}
	w := pack(o)
	pack(Owner{Space: o.Space, VA: o.VA + (n-1)*units.Page4K, Size: o.Size})
	for n > 0 {
		b, lo := pfn>>blockBits, pfn&(blockFrames-1)
		k := min(n, blockFrames-lo)
		for f := pfn; f < pfn+k; f++ {
			m.claim(f, units.Size4K)
		}
		l := m.leafOf(b)
		for i := range k {
			l[lo+i] = w + i
		}
		m.live[b] += uint16(k)
		pfn, n, w = pfn+k, n-k, w+k
	}
}

// ClearOwner removes the mapping registration at head frame pfn.
func (m *Memory) ClearOwner(pfn uint64) { m.drop(pfn) }

// ClearOwners is ClearOwner on each head frame of pfns, in order: the
// kernel's run teardown clears a whole run's owners with one call.
func (m *Memory) ClearOwners(pfns []uint64) {
	for _, pfn := range pfns {
		m.drop(pfn)
	}
}

// MoveOwners moves the mapping registration at head frame from[j] to frame
// to[j], for each j in order: exactly ClearOwner(from[j]) followed by
// SetOwner(to[j], o) with the owner o it cleared, moving one word.
// Compaction's page moves use it.
func (m *Memory) MoveOwners(from, to []uint64) {
	for j, pfn := range from {
		w := m.drop(pfn)
		m.claim(to[j], sizeOf(w))
		m.put(to[j], w)
	}
}

// Run4K returns how many consecutive frames from pfn, stopping before hi,
// are movable heads of 4KB mappings of one address space at consecutive
// VAs: frame pfn+j is mapped at the VA of pfn's mapping plus j*4KB. It is
// 0 unless pfn heads a 4KB mapping. Compaction moves such a run with one
// kernel call.
func (m *Memory) Run4K(pfn, hi uint64) uint64 {
	first := m.leaf4K(pfn)
	if first == 0 {
		return 0
	}
	n := uint64(0)
	for f := pfn; f < hi && !m.unmovable.get(f) && m.leaf4K(f) == first+n; f++ {
		n++
	}
	return n
}

// OwnerOf resolves the mapping covering frame pfn, if any. It returns the
// owner, the head frame of the mapping, and whether a mapping exists. Only
// the three x86 alignments need checking: a frame is covered either by a 4KB
// mapping at itself, a 2MB mapping at its 2MB-aligned head, or a 1GB mapping
// at its 1GB-aligned head.
func (m *Memory) OwnerOf(pfn uint64) (Owner, uint64, bool) {
	if w := m.leaf4K(pfn); w != 0 {
		return unpack(w), pfn, true
	}
	// A huge page headed in pfn's block covers it: a 2MB page, or a 1GB
	// page whose head block this is.
	b := pfn >> blockBits
	if w := m.heads[b]; w != 0 {
		return unpack(w), b << blockBits, true
	}
	g := pfn &^ (units.Size1G.Frames() - 1) >> blockBits
	if w := m.heads[g]; w != 0 && sizeOf(w) == units.Size1G {
		return unpack(w), g << blockBits, true
	}
	return Owner{}, 0, false
}

// ForEachOwner visits every registered mapping head as (head PFN, owner),
// in ascending PFN order. Return false to stop early. The invariant auditor
// uses this to cross-check the reverse map against the page tables.
func (m *Memory) ForEachOwner(fn func(pfn uint64, o Owner) bool) {
	for b, w := range m.heads {
		base := uint64(b) << blockBits
		// A block's head frame has one owner at most, so heads[b] comes
		// first.
		if w != 0 && !fn(base, unpack(w)) {
			return
		}
		if l := m.leaves[b]; l != nil {
			for i, w := range l {
				if w != 0 && !fn(base+uint64(i), unpack(w)) {
					return
				}
			}
		}
	}
}

// NextAllocated returns the lowest allocated frame in [lo, hi), or hi if
// there is none, scanning the allocation bitmap a word at a time.
func (m *Memory) NextAllocated(lo, hi uint64) uint64 {
	for lo < hi {
		w := lo / 64
		if used := m.allocated[w] & rangeMask(w, lo, hi-lo); used != 0 {
			return w*64 + uint64(bits.TrailingZeros64(used))
		}
		lo = (w + 1) * 64
	}
	return hi
}

// PrevFree returns the highest free frame in [lo, hi), scanning the
// allocation bitmap a word at a time, and false if there is none.
func (m *Memory) PrevFree(lo, hi uint64) (uint64, bool) {
	for lo < hi {
		w := (hi - 1) / 64
		if free := ^m.allocated[w] & rangeMask(w, lo, hi-lo); free != 0 {
			return w*64 + 63 - uint64(bits.LeadingZeros64(free)), true
		}
		hi = w * 64
	}
	return 0, false
}

// AllocatedInRange counts allocated frames in [pfn, pfn+count).
func (m *Memory) AllocatedInRange(pfn, count uint64) uint64 {
	m.checkRange(pfn, count)
	var n uint64
	for f := pfn; f < pfn+count; f++ {
		if m.allocated.get(f) {
			n++
		}
	}
	return n
}

func (m *Memory) checkRange(pfn, count uint64) {
	if pfn+count > m.frames || pfn+count < pfn {
		panic(fmt.Sprintf("phys: frame range [%d,+%d) out of bounds (%d frames)",
			pfn, count, m.frames))
	}
}

// bitset is a dense bitmap over frame numbers.
type bitset []uint64

func (b bitset) get(i uint64) bool { return b[i/64]&(1<<(i%64)) != 0 }

// rangeMask returns the bits of word w that fall inside [lo, lo+n).
func rangeMask(w, lo, n uint64) uint64 {
	mask := ^uint64(0)
	if w == lo/64 {
		mask &= ^uint64(0) << (lo % 64)
	}
	if hi := lo + n; w == (hi-1)/64 {
		mask &= ^uint64(0) >> (63 - (hi-1)%64)
	}
	return mask
}

// setRange sets bits [lo, lo+n) a word at a time, panicking on the first
// already-set bit ("double <what> of frame f", matching the old per-frame
// loop's diagnostics).
func (b bitset) setRange(lo, n uint64, what string) {
	for w := lo / 64; w <= (lo+n-1)/64; w++ {
		mask := rangeMask(w, lo, n)
		if hit := b[w] & mask; hit != 0 {
			panic(fmt.Sprintf("phys: double %s of frame %d", what, w*64+uint64(bits.TrailingZeros64(hit))))
		}
		b[w] |= mask
	}
}

// clearRange clears bits [lo, lo+n), panicking on the first already-clear
// bit.
func (b bitset) clearRange(lo, n uint64, what string) {
	for w := lo / 64; w <= (lo+n-1)/64; w++ {
		mask := rangeMask(w, lo, n)
		if miss := ^b[w] & mask; miss != 0 {
			panic(fmt.Sprintf("phys: double %s of frame %d", what, w*64+uint64(bits.TrailingZeros64(miss))))
		}
		b[w] &^= mask
	}
}

// countRange returns the number of set bits in [lo, lo+n).
func (b bitset) countRange(lo, n uint64) (c uint64) {
	for w := lo / 64; w <= (lo+n-1)/64; w++ {
		c += uint64(bits.OnesCount64(b[w] & rangeMask(w, lo, n)))
	}
	return c
}

// clearAll clears bits [lo, lo+n) unconditionally.
func (b bitset) clearAll(lo, n uint64) {
	for w := lo / 64; w <= (lo+n-1)/64; w++ {
		b[w] &^= rangeMask(w, lo, n)
	}
}
