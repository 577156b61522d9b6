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

	// rmap holds, for the head frame of each user mapping, an index+1 into
	// owners. Non-head frames and unmapped frames hold 0. It is chunked,
	// with chunks allocated on first write: machines are built per run and
	// workloads touch a fraction of physical memory, so a flat array spent
	// more time being zero-initialized than being used.
	rmap [][]uint32
	// owners is chunked (ownerChunk entries per chunk) so that growth
	// appends a fresh chunk instead of reallocating: the fault path
	// registers an owner per mapped page, and a flat doubling slice spent
	// more time zeroing and copying regrown arrays than on bookkeeping.
	owners    [][]Owner
	nextOwner uint32
	ownerFree []uint32

	allocFrames     uint64
	unmovableFrames uint64
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
// allocated backing (bitsets, materialized rmap and owner chunks, the
// ownerFree stack's capacity). A reset Memory is observably identical to a
// fresh one: rmapAt reads a zeroed chunk exactly as it reads a nil one,
// and stale Owner values are unreachable because every read goes through
// the rmap (now all-zero) and every SetOwner fully overwrites its slot.
// The machine pool (internal/sim) uses this to reuse kernels across runs.
func (m *Memory) Reset() {
	for i := range m.regions {
		m.regions[i] = RegionStats{Free: units.FramesPerRegion}
	}
	clear(m.allocated)
	clear(m.unmovable)
	for _, c := range m.rmap {
		if c != nil {
			clear(c)
		}
	}
	m.nextOwner = 1
	m.ownerFree = m.ownerFree[:0]
	m.allocFrames = 0
	m.unmovableFrames = 0
}

// Boot sizes a Memory with every frame free — the zero Memory, or the
// state Reset leaves — to bytes, which must be a positive multiple of
// 1GB. A booted Memory is observably identical to NewMemory(bytes), and
// only the difference is touched: growing reuses spare capacity,
// initializing the regions and bitset words it exposes whatever they
// hold; shrinking reslices. Materialized rmap chunks past the old end are
// reused as they are: a chunk is only written while it lies inside the
// memory, and Reset cleared it before the memory last shrank past it, so
// clearing it again would only repeat that work. Owners are not
// frame-indexed and stay as they are.
func (m *Memory) Boot(bytes uint64) {
	if bytes == 0 || bytes%units.Page1G != 0 {
		panic(fmt.Sprintf("phys: memory size %d is not a positive multiple of 1GB", bytes))
	}
	if m.allocFrames != 0 {
		panic("phys: Boot of a memory with allocated frames")
	}
	if m.nextOwner == 0 {
		m.nextOwner = 1 // index 0 is reserved: rmap uses 0 for "no owner"
	}
	oldRegions := len(m.regions)
	m.frames = bytes / units.Page4K
	m.regions = Resized(m.regions, int(bytes/units.Page1G))
	for i := oldRegions; i < len(m.regions); i++ {
		m.regions[i] = RegionStats{Free: units.FramesPerRegion}
	}
	m.allocated = ResizedZero(m.allocated, int((m.frames+63)/64))
	m.unmovable = ResizedZero(m.unmovable, len(m.allocated))
	m.rmap = Resized(m.rmap, int((m.frames+rmapChunk-1)>>rmapChunkBits))
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

// UnmovableFrames returns the machine-wide count of unmovable frames.
func (m *Memory) UnmovableFrames() uint64 { return m.unmovableFrames }

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
	if unmovable {
		m.unmovableFrames += count
	}
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
	for f := pfn; f < pfn+count; {
		c := m.rmap[f>>rmapChunkBits]
		end := (f>>rmapChunkBits + 1) << rmapChunkBits
		if end > pfn+count {
			end = pfn + count
		}
		if c == nil { // no owner was ever registered in this chunk
			f = end
			continue
		}
		for ; f < end; f++ {
			if c[f&(rmapChunk-1)] != 0 {
				m.clearOwnerAt(f)
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
			m.unmovableFrames -= u
		}
		f = end
	}
	m.allocFrames -= count
}

// SetOwner registers the virtual mapping that covers the page whose head
// frame is pfn. The frames must already be allocated.
func (m *Memory) SetOwner(pfn uint64, o Owner) {
	if o.Space == 0 {
		panic("phys: owner space 0 is reserved")
	}
	if !units.IsAligned(units.FrameAddr(pfn), o.Size.Bytes()) {
		panic(fmt.Sprintf("phys: owner head pfn %d not aligned to %v", pfn, o.Size))
	}
	if !m.allocated.get(pfn) {
		panic(fmt.Sprintf("phys: SetOwner on free frame %d", pfn))
	}
	if m.rmapAt(pfn) != 0 {
		panic(fmt.Sprintf("phys: frame %d already has an owner", pfn))
	}
	var idx uint32
	if n := len(m.ownerFree); n > 0 {
		idx = m.ownerFree[n-1]
		m.ownerFree = m.ownerFree[:n-1]
	} else {
		idx = m.nextOwner
		if int(idx>>ownerChunkBits) == len(m.owners) {
			m.owners = append(m.owners, make([]Owner, ownerChunk))
		}
		m.nextOwner++
	}
	*m.ownerAt(idx) = o
	m.rmapSet(pfn, idx)
}

const (
	ownerChunkBits = 15
	ownerChunk     = 1 << ownerChunkBits

	rmapChunkBits = 16
	rmapChunk     = 1 << rmapChunkBits
)

// rmapAt reads the owner index registered at frame f (0 = none).
func (m *Memory) rmapAt(f uint64) uint32 {
	c := m.rmap[f>>rmapChunkBits]
	if c == nil {
		return 0
	}
	return c[f&(rmapChunk-1)]
}

// rmapSet writes the owner index for frame f, allocating its chunk.
func (m *Memory) rmapSet(f uint64, v uint32) {
	c := m.rmap[f>>rmapChunkBits]
	if c == nil {
		c = make([]uint32, rmapChunk)
		m.rmap[f>>rmapChunkBits] = c
	}
	c[f&(rmapChunk-1)] = v
}

// ownerAt returns the owner slot for a chunked index.
func (m *Memory) ownerAt(idx uint32) *Owner {
	return &m.owners[idx>>ownerChunkBits][idx&(ownerChunk-1)]
}

// ClearOwner removes the mapping registration at head frame pfn.
func (m *Memory) ClearOwner(pfn uint64) {
	if m.rmapAt(pfn) == 0 {
		panic(fmt.Sprintf("phys: ClearOwner on unowned frame %d", pfn))
	}
	m.clearOwnerAt(pfn)
}

// ClearOwners is ClearOwner on each head frame of pfns, in order: the
// kernel's run teardown clears a whole run's owners with one call.
func (m *Memory) ClearOwners(pfns []uint64) {
	for _, pfn := range pfns {
		m.ClearOwner(pfn)
	}
}

// MoveOwners moves the mapping registration at head frame from[j] to frame
// to[j], for each j in order. It is exactly ClearOwner(from[j]) followed by
// SetOwner(to[j], o) with the owner o it cleared, which hands o's owner
// slot straight back (ownerFree is LIFO), so only the reverse map changes.
// Compaction's page moves use it.
func (m *Memory) MoveOwners(from, to []uint64) {
	for j, pfn := range from {
		idx := m.rmapAt(pfn)
		if idx == 0 {
			panic(fmt.Sprintf("phys: ClearOwner on unowned frame %d", pfn))
		}
		m.rmapSet(pfn, 0)
		dst := to[j]
		if !units.IsAligned(units.FrameAddr(dst), m.ownerAt(idx).Size.Bytes()) {
			panic(fmt.Sprintf("phys: owner head pfn %d not aligned to %v", dst, m.ownerAt(idx).Size))
		}
		if !m.allocated.get(dst) {
			panic(fmt.Sprintf("phys: SetOwner on free frame %d", dst))
		}
		if m.rmapAt(dst) != 0 {
			panic(fmt.Sprintf("phys: frame %d already has an owner", dst))
		}
		m.rmapSet(dst, idx)
	}
}

// Run4K returns how many consecutive frames from pfn, stopping before hi,
// are movable heads of 4KB mappings of one address space at consecutive
// VAs: frame pfn+j is mapped at the VA of pfn's mapping plus j*4KB. It is
// 0 unless pfn heads a 4KB mapping. Compaction moves such a run with one
// kernel call.
func (m *Memory) Run4K(pfn, hi uint64) uint64 {
	var first Owner
	n := uint64(0)
	for f := pfn; f < hi && !m.unmovable.get(f); f++ {
		idx := m.rmapAt(f)
		if idx == 0 {
			break
		}
		o := *m.ownerAt(idx)
		if n == 0 {
			first = o
		}
		if o != (Owner{Space: first.Space, VA: first.VA + n*units.Page4K, Size: units.Size4K}) {
			break
		}
		n++
	}
	return n
}

func (m *Memory) clearOwnerAt(pfn uint64) {
	idx := m.rmapAt(pfn)
	m.rmapSet(pfn, 0)
	*m.ownerAt(idx) = Owner{}
	if len(m.ownerFree) == cap(m.ownerFree) {
		next := make([]uint32, len(m.ownerFree), 2*cap(m.ownerFree))
		copy(next, m.ownerFree)
		m.ownerFree = next
	}
	m.ownerFree = append(m.ownerFree, idx)
}

// OwnerOf resolves the mapping covering frame pfn, if any. It returns the
// owner, the head frame of the mapping, and whether a mapping exists. Only
// the three x86 alignments need checking: a frame is covered either by a 4KB
// mapping at itself, a 2MB mapping at its 2MB-aligned head, or a 1GB mapping
// at its 1GB-aligned head.
func (m *Memory) OwnerOf(pfn uint64) (Owner, uint64, bool) {
	if idx := m.rmapAt(pfn); idx != 0 {
		return *m.ownerAt(idx), pfn, true
	}
	head2M := pfn &^ (units.Size2M.Frames() - 1)
	if idx := m.rmapAt(head2M); idx != 0 {
		if o := m.ownerAt(idx); o.Size == units.Size2M {
			return *o, head2M, true
		}
	}
	head1G := pfn &^ (units.Size1G.Frames() - 1)
	if idx := m.rmapAt(head1G); idx != 0 {
		if o := m.ownerAt(idx); o.Size == units.Size1G {
			return *o, head1G, true
		}
	}
	return Owner{}, 0, false
}

// ForEachOwner visits every registered mapping head as (head PFN, owner),
// in ascending PFN order. Return false to stop early. The invariant auditor
// uses this to cross-check the reverse map against the page tables.
func (m *Memory) ForEachOwner(fn func(pfn uint64, o Owner) bool) {
	for ci, c := range m.rmap {
		if c == nil {
			continue
		}
		for i, idx := range c {
			if idx == 0 {
				continue
			}
			if !fn(uint64(ci)<<rmapChunkBits|uint64(i), *m.ownerAt(idx)) {
				return
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
func (b bitset) set(i uint64)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i uint64)    { b[i/64] &^= 1 << (i % 64) }

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
func (b bitset) popcount() (n uint64) {
	for _, w := range b {
		n += uint64(bits.OnesCount64(w))
	}
	return n
}
