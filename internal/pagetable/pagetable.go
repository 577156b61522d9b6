// Package pagetable implements a 4-level x86-64 radix page table with leaf
// mappings at all three architectural sizes: 4KB (PTE), 2MB (PDE with PS=1)
// and 1GB (PDPTE with PS=1).
//
// The structure mirrors hardware: entries carry present/PS/accessed/dirty
// bits, and a translation reports how many page-table memory accesses a
// hardware walker would perform — 4 for a 4KB mapping, 3 for 2MB, 2 for 1GB
// (§2 of the paper). Those counts are the raw material of the paper's
// walk-cycle measurements; package mmu combines them with TLBs, page-walk
// caches and (under virtualization) the 2D nested-walk formula.
//
// Access and dirty bits are set by Translate and can be cleared and sampled
// over address ranges, which is how the paper's Figure-4 experiment and
// HawkEye's kbinmanager estimate per-region TLB pressure.
package pagetable

import (
	"errors"
	"fmt"

	"repro/internal/units"
)

// Entry flag bits, following the x86 layout where it matters.
const (
	flagPresent  = 1 << 0
	flagAccessed = 1 << 5
	flagDirty    = 1 << 6
	flagPS       = 1 << 7 // leaf at a non-terminal level (2MB/1GB page)

	pfnShift = 12
)

// VABits is the width of the simulated canonical virtual address space.
const VABits = 48

// MaxVA is the exclusive upper bound of usable (lower-half) virtual addresses.
const MaxVA = uint64(1) << (VABits - 1)

// Errors returned by mapping operations.
var (
	ErrOverlap    = errors.New("pagetable: range overlaps an existing mapping")
	ErrNotMapped  = errors.New("pagetable: address not mapped at that size")
	ErrBadAddress = errors.New("pagetable: address out of range or misaligned")
)

// Mapping describes one leaf mapping.
type Mapping struct {
	VA       uint64 // virtual address of the page head
	PFN      uint64 // physical frame number of the page head
	Size     units.PageSize
	Accessed bool
	Dirty    bool
}

// Table is one address space's page table.
//
// Lookup and Translate keep a small software walk cache (wc) and are
// therefore not safe for concurrent use; each simulated run owns its tables
// exclusively (DESIGN.md §5).
type Table struct {
	root        *node // level 4 (PML4)
	mappedBytes [units.NumPageSizes]uint64
	mappedPages [units.NumPageSizes]uint64
	wc          walkCache

	// Free lists of reclaimed (all-zero, see newNode) page-table nodes,
	// split by shape: inner nodes carry a 512-pointer children slice,
	// level-1 nodes do not.
	poolInner []*node
	poolLeaf  []*node
}

// walkCache remembers where the previous walk ended, so spatially-local
// walks resolve without re-descending from the PML4: the last leaf entry
// (any size) answers repeats within the same page, and the last page-table
// node reached at level 2 (a PD, covering 1GB of VA) answers neighbours in
// the same 1GB window from two levels down. It caches structure, not entry
// contents — hits re-read the live entry, so flag updates (accessed/dirty
// bits, Replace's PFN swap) need no invalidation; any structural change
// (Map/Unmap/Demote) drops the cache wholesale.
type walkCache struct {
	leaf     *node // node holding the cached leaf entry; nil when invalid
	leafIdx  int
	leafLo   uint64 // VA span [leafLo, leafHi) of the cached leaf page
	leafHi   uint64
	leafSize units.PageSize

	pd   *node // level-2 node covering [pdLo, pdLo+1GB); nil when invalid
	pdLo uint64
}

// invalidate drops the walk cache (called on any structural mutation).
func (t *Table) invalidate() { t.wc = walkCache{} }

type node struct {
	entries  [512]uint64
	children []*node // allocated only for levels > 1
	live     int     // number of present entries, for table reclamation
}

// newNode returns a zeroed node for the given level, reusing a reclaimed
// one when available: Unmap only reclaims nodes with live == 0, and a node
// with no present entries is provably all-zero (entries are zeroed when
// their mapping or child is removed, and child pointers are nil'd on
// reclamation), so pooled nodes need no clearing. The fault path maps and
// unmaps intermediate tables constantly under churn/compaction; reuse keeps
// that off the allocator.
func (t *Table) newNode(level int) *node {
	if level > 1 {
		if k := len(t.poolInner); k > 0 {
			n := t.poolInner[k-1]
			t.poolInner = t.poolInner[:k-1]
			return n
		}
		return &node{children: make([]*node, 512)}
	}
	if k := len(t.poolLeaf); k > 0 {
		n := t.poolLeaf[k-1]
		t.poolLeaf = t.poolLeaf[:k-1]
		return n
	}
	return &node{}
}

// New creates an empty page table.
func New() *Table {
	t := &Table{}
	t.root = t.newNode(4)
	return t
}

// Reset empties the table in place, reclaiming every allocated node into
// the pools, so the next population's node allocations are all pool hits.
// A reset table is observably identical to a fresh one: the pools only
// hand out all-zero nodes (reclaim restores that state), and every other
// field returns to its New value. The machine pool (internal/sim) relies
// on this to reuse kernels across runs without re-allocating their
// page-table arenas.
func (t *Table) Reset() {
	t.reclaim(t.root)
	t.root = t.newNode(4)
	t.mappedBytes = [units.NumPageSizes]uint64{}
	t.mappedPages = [units.NumPageSizes]uint64{}
	t.invalidate()
}

// reclaim zeroes n, detaches and reclaims its subtree, and returns n to
// its pool — re-establishing newNode's all-zero invariant.
func (t *Table) reclaim(n *node) {
	if n.live != 0 {
		n.entries = [512]uint64{}
		n.live = 0
	}
	if n.children != nil {
		for i, c := range n.children {
			if c != nil {
				t.reclaim(c)
				n.children[i] = nil
			}
		}
		t.poolInner = append(t.poolInner, n)
	} else {
		t.poolLeaf = append(t.poolLeaf, n)
	}
}

// leafLevel returns the level at which a page of the given size terminates:
// 3 for 1GB (PDPTE), 2 for 2MB (PDE), 1 for 4KB (PTE).
func leafLevel(size units.PageSize) int {
	switch size {
	case units.Size1G:
		return 3
	case units.Size2M:
		return 2
	default:
		return 1
	}
}

// WalkAccesses returns the number of page-table memory accesses a hardware
// walk performs for a native mapping of the given size (4/3/2 for
// 4KB/2MB/1GB).
func WalkAccesses(size units.PageSize) int { return 5 - leafLevel(size) }

// NestedWalkAccesses returns the number of memory accesses of a 2D
// (virtualized) page walk when the guest maps with gs and the host with hs:
// (g+1)*(h+1)-1, giving the paper's 24 / 15 / 8 for 4KB/2MB/1GB at both
// levels (§2).
func NestedWalkAccesses(gs, hs units.PageSize) int {
	return (WalkAccesses(gs)+1)*(WalkAccesses(hs)+1) - 1
}

func index(va uint64, level int) int {
	return int((va >> uint(12+9*(level-1))) & 0x1ff)
}

func checkVA(va uint64, size units.PageSize) error {
	if va >= MaxVA || !units.IsAligned(va, size.Bytes()) {
		return ErrBadAddress
	}
	return nil
}

// Map installs a leaf mapping of the given size at va → pfn. The entire
// range must be unmapped; otherwise ErrOverlap is returned and the table is
// unchanged.
//
// Overlap is detected in O(depth) during the single installing descent,
// replacing a subtree scan (rangeMapped/ForEach) that dominated the fault
// path's Map cost:
//
//   - a PS leaf along the path covers va: overlap;
//   - a present target-level entry is either a same-size leaf or (for huge
//     mappings) an intermediate table, which — since every allocated node
//     holds at least one present entry — contains a smaller leaf strictly
//     inside the range: overlap;
//   - an absent entry along the path proves its whole span, which contains
//     the target range, is unmapped: Map will succeed.
//
// Detection always fires before the descent mutates anything: intermediate
// nodes are only created below the first absent entry, and everything
// beneath a freshly created node is empty, so no failure is possible after
// the first node is created.
func (t *Table) Map(va, pfn uint64, size units.PageSize) error {
	if err := checkVA(va, size); err != nil {
		return err
	}
	// Map preserves the walk cache: it never modifies a present entry
	// (overlap is rejected before any mutation) and never frees a node, so
	// every cached pointer stays coherent. Better, the installed leaf seeds
	// the cache below — the fault path's map-then-retranslate pattern hits
	// it without a fresh descent.
	target := leafLevel(size)
	var pd *node
	n := t.root
	level := 4
	if target <= 2 {
		if wc := &t.wc; wc.pd != nil && va-wc.pdLo < units.Page1G {
			// A valid cached PD was reached through present non-PS entries
			// at levels 4–3; Map never mutates a present entry and Unmap
			// invalidates the cache, so those two levels need no revisit —
			// they would neither create nodes nor detect overlap.
			n, level = wc.pd, 2
		}
	}
	for ; level > target; level-- {
		i := index(va, level)
		if n.entries[i]&flagPresent == 0 {
			child := t.newNode(level - 1)
			n.children[i] = child
			n.entries[i] = flagPresent
			n.live++
		} else if n.entries[i]&flagPS != 0 {
			return ErrOverlap // covered by a larger leaf
		}
		if level == 2 {
			pd = n
		}
		n = n.children[i]
	}
	i := index(va, target)
	if n.entries[i]&flagPresent != 0 {
		return ErrOverlap // same-size leaf, or a table holding smaller leaves
	}
	e := uint64(flagPresent) | pfn<<pfnShift
	if target > 1 {
		e |= flagPS
	}
	n.entries[i] = e
	n.live++
	t.mappedBytes[size] += size.Bytes()
	t.mappedPages[size]++
	t.wc.leaf, t.wc.leafIdx = n, i
	t.wc.leafLo, t.wc.leafHi, t.wc.leafSize = va, va+size.Bytes(), size
	switch target {
	case 1: // pd was captured on the way down
		t.wc.pd, t.wc.pdLo = pd, units.Align(va, units.Page1G)
	case 2: // n itself is the PD holding the new 2MB leaf
		t.wc.pd, t.wc.pdLo = n, units.Align(va, units.Page1G)
	}
	return nil
}

// MapRun maps count 4KB pages, va+j*4KB → pfn+j, and returns how many it
// mapped. It is exactly Map(va+j*4KB, pfn+j, Size4K) for j = 0, 1, … up
// to count or the first error, which it returns: the same entries, nodes,
// counters and walk cache. Only the first page in each leaf table goes
// through Map's descent; the rest of the table's pages are written
// straight into the leaf table that Map left in the walk cache.
func (t *Table) MapRun(va, pfn, count uint64) (uint64, error) {
	var done uint64
	for done < count {
		if err := t.Map(va+done*units.Page4K, pfn+done, units.Size4K); err != nil {
			return done, err
		}
		done++
		// MaxVA is 2MB-aligned, so the rest of the leaf table lies below it.
		n, first := t.wc.leaf, t.wc.leafIdx+1
		last := min(512, first+int(count-done))
		i := first
		for ; i < last && n.entries[i]&flagPresent == 0; i++ {
			n.entries[i] = flagPresent | (pfn+done+uint64(i-first))<<pfnShift
		}
		if mapped := uint64(i - first); mapped > 0 {
			n.live += i - first
			t.mappedBytes[units.Size4K] += mapped * units.Page4K
			t.mappedPages[units.Size4K] += mapped
			done += mapped
			t.wc.leafIdx = i - 1
			t.wc.leafLo = va + (done-1)*units.Page4K
			t.wc.leafHi = t.wc.leafLo + units.Page4K
		}
		if i < last {
			return done, ErrOverlap
		}
	}
	return done, nil
}

// Unmapped4K returns how many consecutive 4KB pages from va, at most
// count, no leaf mapping covers. The pages must lie in va's 2MB window. One
// descent (from the cached PD when va is in its 1GB window, as in Map)
// reaches the leaf table, whose entries are then scanned; an absent
// intermediate entry means the whole window is unmapped, a PS leaf that
// all of it is mapped.
func (t *Table) Unmapped4K(va, count uint64) uint64 {
	n, level := t.root, 4
	if wc := &t.wc; wc.pd != nil && va-wc.pdLo < units.Page1G {
		n, level = wc.pd, 2
	}
	for ; level > 1; level-- {
		i := index(va, level)
		if n.entries[i]&flagPresent == 0 {
			return count
		}
		if n.entries[i]&flagPS != 0 {
			return 0
		}
		n = n.children[i]
	}
	first := index(va, 1)
	i := first
	for last := first + int(count); i < last && n.entries[i]&flagPresent == 0; i++ {
	}
	return uint64(i - first)
}

// Overlaps reports whether any leaf mapping intersects the naturally
// aligned page range [va, va+size) in O(depth). One descent along va
// decides everything:
//
//   - an absent intermediate entry proves its whole span — which contains
//     the target range, since spans at levels above the target are at
//     least as large — is unmapped: no overlap;
//   - a PS leaf along the path covers va: overlap;
//   - a present entry at the target level is either a leaf at va or an
//     intermediate table, and every allocated table has live ≥ 1 (Unmap
//     reclaims empty tables bottom-up), so by induction some leaf lies
//     strictly inside the target range: overlap.
//
// The fault path's huge-page attempts use this to test candidate ranges
// without iterating the subtree (ForEach) or faulting in a trial Map.
func (t *Table) Overlaps(va uint64, size units.PageSize) bool {
	target := leafLevel(size)
	n := t.root
	for level := 4; level > target; level-- {
		i := index(va, level)
		e := n.entries[i]
		if e&flagPresent == 0 {
			return false
		}
		if e&flagPS != 0 {
			return true
		}
		n = n.children[i]
	}
	return n.entries[index(va, target)]&flagPresent != 0
}

// Unmap removes the leaf mapping of exactly the given size at va and returns
// its PFN. Empty intermediate tables are reclaimed.
func (t *Table) Unmap(va uint64, size units.PageSize) (uint64, error) {
	if err := checkVA(va, size); err != nil {
		return 0, err
	}
	t.invalidate()
	target := leafLevel(size)
	var path [5]*node
	n := t.root
	for level := 4; level > target; level-- {
		path[level] = n
		i := index(va, level)
		if n.entries[i]&flagPresent == 0 || n.entries[i]&flagPS != 0 {
			return 0, ErrNotMapped
		}
		n = n.children[i]
	}
	i := index(va, target)
	e := n.entries[i]
	if e&flagPresent == 0 {
		return 0, ErrNotMapped
	}
	if target > 1 && e&flagPS == 0 {
		return 0, ErrNotMapped // intermediate table, not a leaf of this size
	}
	pfn := e >> pfnShift
	n.entries[i] = 0
	n.live--
	t.mappedBytes[size] -= size.Bytes()
	t.mappedPages[size]--
	// Reclaim now-empty tables bottom-up, returning them to the node pool
	// (they are all-zero at this point, the state newNode hands back out).
	for level := target + 1; level <= 4 && n.live == 0; level++ {
		parent := path[level]
		if parent == nil {
			break
		}
		pi := index(va, level)
		parent.children[pi] = nil
		parent.entries[pi] = 0
		parent.live--
		if n.children != nil {
			t.poolInner = append(t.poolInner, n)
		} else {
			t.poolLeaf = append(t.poolLeaf, n)
		}
		n = parent
	}
	return pfn, nil
}

// UnmapRange removes every leaf mapping lying wholly inside [lo, hi) in a
// single subtree traversal, invoking fn for each removed mapping in
// ascending VA order, immediately after its entry is cleared. fn must not
// touch the table. Counter updates, the node-reclaim sequence (and with it
// the node pools' contents) and the final structure are exactly those of
// per-page Unmap calls over the same mappings in ascending VA order — the
// one traversal merely replaces their per-page root descents. Leaves only
// partially inside the range (i.e. larger than it) are left in place.
func (t *Table) UnmapRange(lo, hi uint64, fn func(Mapping)) {
	if hi > MaxVA {
		hi = MaxVA
	}
	if lo >= hi {
		return
	}
	t.invalidate()
	t.unmapNode(t.root, 4, 0, lo, hi, fn)
}

func (t *Table) unmapNode(n *node, level int, base, lo, hi uint64, fn func(Mapping)) {
	span := uint64(1) << uint(12+9*(level-1)) // bytes covered per entry
	first, last := 0, 511
	if base < lo {
		first = int((lo - base) / span)
	}
	if base+512*span > hi {
		last = int((hi - base - 1) / span)
	}
	for i := first; i <= last; i++ {
		e := n.entries[i]
		if e&flagPresent == 0 {
			continue
		}
		entryBase := base + uint64(i)*span
		if level == 1 || e&flagPS != 0 {
			if entryBase < lo || entryBase+span > hi {
				continue // a larger leaf sticking out of the range
			}
			size := sizeOfLevel(level)
			n.entries[i] = 0
			n.live--
			t.mappedBytes[size] -= size.Bytes()
			t.mappedPages[size]--
			fn(Mapping{
				VA:       entryBase,
				PFN:      e >> pfnShift,
				Size:     size,
				Accessed: e&flagAccessed != 0,
				Dirty:    e&flagDirty != 0,
			})
			continue
		}
		child := n.children[i]
		t.unmapNode(child, level-1, entryBase, lo, hi, fn)
		// Reclaim an emptied table exactly where sequential Unmaps would:
		// right after the removal that emptied it, before any later VA is
		// touched, child-before-parent.
		if child.live == 0 {
			n.entries[i] = 0
			n.children[i] = nil
			n.live--
			if child.children != nil {
				t.poolInner = append(t.poolInner, child)
			} else {
				t.poolLeaf = append(t.poolLeaf, child)
			}
		}
	}
}

// Lookup returns the leaf mapping covering va, if any. It does not set
// access bits.
func (t *Table) Lookup(va uint64) (Mapping, bool) {
	if va >= MaxVA {
		return Mapping{}, false
	}
	if wc := &t.wc; wc.leaf != nil && va-wc.leafLo < wc.leafHi-wc.leafLo {
		e := wc.leaf.entries[wc.leafIdx]
		return Mapping{
			VA:       wc.leafLo,
			PFN:      e >> pfnShift,
			Size:     wc.leafSize,
			Accessed: e&flagAccessed != 0,
			Dirty:    e&flagDirty != 0,
		}, true
	}
	n, i, level, ok := t.descend(va)
	if !ok {
		return Mapping{}, false
	}
	e := n.entries[i]
	size := sizeOfLevel(level)
	return Mapping{
		VA:       units.Align(va, size.Bytes()),
		PFN:      e >> pfnShift,
		Size:     size,
		Accessed: e&flagAccessed != 0,
		Dirty:    e&flagDirty != 0,
	}, true
}

// descend walks to the leaf entry covering va, starting from the cached PD
// node when va falls in its 1GB window, and refreshes the walk cache along
// the way. It returns the node and index of the leaf entry and its level,
// or ok=false if va is unmapped.
func (t *Table) descend(va uint64) (n *node, i, level int, ok bool) {
	n, level = t.root, 4
	if wc := &t.wc; wc.pd != nil && va-wc.pdLo < units.Page1G {
		n, level = wc.pd, 2
	}
	for ; level >= 1; level-- {
		i = index(va, level)
		e := n.entries[i]
		if e&flagPresent == 0 {
			return nil, 0, 0, false
		}
		if level == 1 || e&flagPS != 0 {
			size := sizeOfLevel(level)
			lo := units.Align(va, size.Bytes())
			t.wc.leaf, t.wc.leafIdx = n, i
			t.wc.leafLo, t.wc.leafHi, t.wc.leafSize = lo, lo+size.Bytes(), size
			return n, i, level, true
		}
		if level == 3 {
			t.wc.pd, t.wc.pdLo = n.children[i], units.Align(va, units.Page1G)
		}
		n = n.children[i]
	}
	return nil, 0, 0, false
}

func sizeOfLevel(level int) units.PageSize {
	switch level {
	case 3:
		return units.Size1G
	case 2:
		return units.Size2M
	default:
		return units.Size4K
	}
}

// Translate resolves va to a physical address, setting the accessed bit (and
// dirty bit if write), exactly as the hardware walker does. It returns the
// physical address, the mapping, and whether va was mapped.
func (t *Table) Translate(va uint64, write bool) (uint64, Mapping, bool) {
	if va >= MaxVA {
		return 0, Mapping{}, false
	}
	var n *node
	var i int
	if wc := &t.wc; wc.leaf != nil && va-wc.leafLo < wc.leafHi-wc.leafLo {
		n, i = wc.leaf, wc.leafIdx
	} else {
		var ok bool
		n, i, _, ok = t.descend(va)
		if !ok {
			return 0, Mapping{}, false
		}
	}
	e := n.entries[i] | flagAccessed
	if write {
		e |= flagDirty
	}
	n.entries[i] = e
	size := t.wc.leafSize
	m := Mapping{
		VA:       t.wc.leafLo,
		PFN:      e >> pfnShift,
		Size:     size,
		Accessed: true,
		Dirty:    e&flagDirty != 0,
	}
	offset := va - m.VA
	return units.FrameAddr(m.PFN) + offset, m, true
}

// Replace repoints the leaf mapping at va (of the given size) to a new PFN,
// preserving flags. It is the page-table half of a compaction move.
func (t *Table) Replace(va uint64, size units.PageSize, newPFN uint64) error {
	if err := checkVA(va, size); err != nil {
		return err
	}
	target := leafLevel(size)
	n := t.root
	for level := 4; level > target; level-- {
		i := index(va, level)
		if n.entries[i]&flagPresent == 0 || n.entries[i]&flagPS != 0 {
			return ErrNotMapped
		}
		n = n.children[i]
	}
	i := index(va, target)
	e := n.entries[i]
	if e&flagPresent == 0 || (target > 1 && e&flagPS == 0) {
		return ErrNotMapped
	}
	flags := e & (flagPresent | flagAccessed | flagDirty | flagPS)
	n.entries[i] = flags | newPFN<<pfnShift
	return nil
}

// ForEach visits every leaf mapping intersecting [lo, hi) in ascending VA
// order. fn returning false stops the iteration.
func (t *Table) ForEach(lo, hi uint64, fn func(Mapping) bool) {
	if hi > MaxVA {
		hi = MaxVA
	}
	if lo >= hi {
		return
	}
	t.walkNode(t.root, 4, 0, lo, hi, fn)
}

func (t *Table) walkNode(n *node, level int, base, lo, hi uint64, fn func(Mapping) bool) bool {
	span := uint64(1) << uint(12+9*(level-1)) // bytes covered per entry
	first, last := 0, 511
	if base < lo {
		first = int((lo - base) / span)
	}
	if base+512*span > hi {
		last = int((hi - base - 1) / span)
	}
	for i := first; i <= last; i++ {
		e := n.entries[i]
		if e&flagPresent == 0 {
			continue
		}
		entryBase := base + uint64(i)*span
		if level == 1 || e&flagPS != 0 {
			size := sizeOfLevel(level)
			m := Mapping{
				VA:       entryBase,
				PFN:      e >> pfnShift,
				Size:     size,
				Accessed: e&flagAccessed != 0,
				Dirty:    e&flagDirty != 0,
			}
			if !fn(m) {
				return false
			}
			continue
		}
		if !t.walkNode(n.children[i], level-1, entryBase, lo, hi, fn) {
			return false
		}
	}
	return true
}

// ClearAccessed clears the accessed bit of every leaf mapping intersecting
// [lo, hi) and returns the number of mappings that had it set. This is the
// PTE-access-bit sampling primitive of §4.3 and of HawkEye's kbinmanager.
func (t *Table) ClearAccessed(lo, hi uint64) int {
	cleared := 0
	t.forEachEntry(t.root, 4, 0, lo, hi, func(n *node, i int) {
		if n.entries[i]&flagAccessed != 0 {
			n.entries[i] &^= flagAccessed
			cleared++
		}
	})
	return cleared
}

func (t *Table) forEachEntry(n *node, level int, base, lo, hi uint64, fn func(*node, int)) {
	span := uint64(1) << uint(12+9*(level-1))
	first, last := 0, 511
	if base < lo {
		first = int((lo - base) / span)
	}
	if base+512*span > hi {
		last = int((hi - base - 1) / span)
	}
	for i := first; i <= last; i++ {
		e := n.entries[i]
		if e&flagPresent == 0 {
			continue
		}
		entryBase := base + uint64(i)*span
		if level == 1 || e&flagPS != 0 {
			fn(n, i)
			continue
		}
		t.forEachEntry(n.children[i], level-1, entryBase, lo, hi, fn)
	}
}

// MappedBytes returns the bytes currently mapped with the given page size.
func (t *Table) MappedBytes(size units.PageSize) uint64 { return t.mappedBytes[size] }

// MappedPages returns the number of leaf mappings of the given page size.
func (t *Table) MappedPages(size units.PageSize) uint64 { return t.mappedPages[size] }

// TotalMappedBytes returns the bytes mapped at any page size.
func (t *Table) TotalMappedBytes() uint64 {
	var sum uint64
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		sum += t.mappedBytes[s]
	}
	return sum
}

// Demote splits the huge leaf at va into 512 mappings of the next smaller
// size covering the same physical frames (1GB → 512×2MB, 2MB → 512×4KB).
// Access/dirty bits are inherited. This is used by HawkEye-style bloat
// recovery and by Trident_pv's fallback paths.
func (t *Table) Demote(va uint64) error {
	m, ok := t.Lookup(va)
	if !ok {
		return ErrNotMapped
	}
	if m.Size == units.Size4K {
		return fmt.Errorf("pagetable: cannot demote a 4KB mapping")
	}
	var sub units.PageSize
	if m.Size == units.Size1G {
		sub = units.Size2M
	} else {
		sub = units.Size4K
	}
	if _, err := t.Unmap(m.VA, m.Size); err != nil {
		return err
	}
	for i := uint64(0); i < 512; i++ {
		subVA := m.VA + i*sub.Bytes()
		subPFN := m.PFN + i*sub.Frames()
		if err := t.Map(subVA, subPFN, sub); err != nil {
			// Cannot happen: we just unmapped the covering leaf.
			panic(fmt.Sprintf("pagetable: demote remap failed: %v", err))
		}
		if m.Accessed || m.Dirty {
			t.setFlags(subVA, m.Accessed, m.Dirty)
		}
	}
	return nil
}

func (t *Table) setFlags(va uint64, accessed, dirty bool) {
	t.forEachEntry(t.root, 4, 0, va, va+1, func(n *node, i int) {
		if accessed {
			n.entries[i] |= flagAccessed
		}
		if dirty {
			n.entries[i] |= flagDirty
		}
	})
}
