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
	root        *dir // level 4 (PML4)
	mappedBytes [units.NumPageSizes]uint64
	wc          walkCache

	// Free lists of reclaimed (all-zero, see newDir) page-table pages,
	// split by shape: directories above level 2 carry a dirs slice, level-2
	// directories a pages slice, and leaf tables are bare pages.
	poolDirs  []*dir
	poolPDs   []*dir
	poolPages []*page

	// runPFNs is UnmapRuns' reused buffer of the pending run's frames.
	runPFNs []uint64
}

// walkCache remembers where the previous walk ended, so spatially-local
// walks resolve without re-descending from the PML4: the last leaf entry
// (any size) answers repeats within the same page, and the last page-table
// directory reached at level 2 (a PD, covering 1GB of VA) answers
// neighbours in the same 1GB window from two levels down. It caches
// structure, not entry contents — hits re-read the live entry, so flag
// updates (accessed/dirty bits, Replace's PFN swap) need no invalidation;
// any structural change (Map/Unmap/Demote) drops the cache wholesale.
type walkCache struct {
	leaf     *page // table holding the cached leaf entry; nil when invalid
	leafIdx  int
	leafLo   uint64 // VA span [leafLo, leafHi) of the cached leaf page
	leafHi   uint64
	leafSize units.PageSize

	pd   *dir // level-2 directory covering [pdLo, pdLo+1GB); nil when invalid
	pdLo uint64
}

// invalidate drops the walk cache (called on any structural mutation).
func (t *Table) invalidate() { t.wc = walkCache{} }

// page is one page-table page's 512 entries and nothing else, so a leaf
// (level-1) table is a single 4096-byte allocation, which Go's 4096-byte
// size class holds without slack. Its present-entry count lives in the
// level-2 directory above it.
type page [512]uint64

// dir is a page-table page at level 2, 3 or 4 (PD, PDPT, PML4): its
// entries, the table under each present non-PS entry — a dir above level
// 2, a leaf page at level 2 — and present-entry counts for table
// reclamation: its own in live, and at level 2 each leaf page's in used.
type dir struct {
	entries page
	live    uint16
	dirs    []*dir   // levels 3 and 4 only
	pages   []*page  // level 2 only
	used    []uint16 // level 2 only: used[i] counts pages[i]'s present entries
}

// child returns the table under present non-PS entry i of d, which is at
// the given level, and, above level 2, its dir.
func (d *dir) child(level, i int) (*page, *dir) {
	if level == 2 {
		return d.pages[i], nil
	}
	c := d.dirs[i]
	return &c.entries, c
}

// newDir returns a zeroed directory for the given level, reusing a
// reclaimed one when available: Unmap only reclaims tables with no present
// entries, and such a table is provably all-zero (entries are zeroed when
// their mapping or child is removed, and child pointers are nil'd on
// reclamation), so pooled tables need no clearing. The fault path maps and
// unmaps intermediate tables constantly under churn/compaction; reuse
// keeps that off the allocator.
func (t *Table) newDir(level int) *dir {
	pool := &t.poolDirs
	if level == 2 {
		pool = &t.poolPDs
	}
	if k := len(*pool); k > 0 {
		d := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		return d
	}
	if level == 2 {
		return &dir{pages: make([]*page, 512), used: make([]uint16, 512)}
	}
	return &dir{dirs: make([]*dir, 512)}
}

// newPage returns a zeroed leaf table, reusing a reclaimed one as newDir
// does.
func (t *Table) newPage() *page {
	if k := len(t.poolPages); k > 0 {
		p := t.poolPages[k-1]
		t.poolPages = t.poolPages[:k-1]
		return p
	}
	return new(page)
}

// freeDir returns an emptied (all-zero) directory to its pool.
func (t *Table) freeDir(d *dir) {
	if d.pages != nil {
		t.poolPDs = append(t.poolPDs, d)
	} else {
		t.poolDirs = append(t.poolDirs, d)
	}
}

// New creates an empty page table.
func New() *Table {
	t := &Table{}
	t.root = t.newDir(4)
	return t
}

// Reset empties the table in place, reclaiming every allocated table into
// the pools, so the next population's table allocations are all pool
// hits. A reset table is observably identical to a fresh one: the pools
// only hand out all-zero tables (reclaim restores that state), and every
// other field returns to its New value. The machine pool (internal/sim)
// relies on this to reuse kernels across runs without re-allocating their
// page-table arenas.
func (t *Table) Reset() {
	t.reclaim(t.root)
	t.root = t.newDir(4)
	t.mappedBytes = [units.NumPageSizes]uint64{}
	t.invalidate()
}

// reclaim zeroes d, detaches and reclaims its subtree, and returns d to
// its pool — re-establishing newDir's all-zero invariant.
func (t *Table) reclaim(d *dir) {
	if d.live != 0 {
		d.entries = page{}
		d.live = 0
	}
	for i, c := range d.dirs {
		if c != nil {
			t.reclaim(c)
			d.dirs[i] = nil
		}
	}
	for i, p := range d.pages {
		if p != nil {
			*p = page{}
			d.used[i] = 0
			d.pages[i] = nil
			t.poolPages = append(t.poolPages, p)
		}
	}
	t.freeDir(d)
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
	d, level := t.root, 4
	if target <= 2 {
		if wc := &t.wc; wc.pd != nil && va-wc.pdLo < units.Page1G {
			// A valid cached PD was reached through present non-PS entries
			// at levels 4–3; Map never mutates a present entry and Unmap
			// invalidates the cache, so those two levels need no revisit —
			// they would neither create tables nor detect overlap.
			d, level = wc.pd, 2
		}
	}
	for ; level > max(target, 2); level-- {
		i := index(va, level)
		if d.entries[i]&flagPresent == 0 {
			d.dirs[i] = t.newDir(level - 1)
			d.entries[i] = flagPresent
			d.live++
		} else if d.entries[i]&flagPS != 0 {
			return ErrOverlap // covered by a larger leaf
		}
		d = d.dirs[i]
	}
	// d is the directory at level max(target, 2); the leaf entry goes in
	// it, or for 4KB in the leaf table under it.
	tbl, live := &d.entries, &d.live
	if target == 1 {
		i := index(va, 2)
		if d.entries[i]&flagPresent == 0 {
			d.pages[i] = t.newPage()
			d.entries[i] = flagPresent
			d.live++
		} else if d.entries[i]&flagPS != 0 {
			return ErrOverlap
		}
		tbl, live = d.pages[i], &d.used[i]
	}
	i := index(va, target)
	if tbl[i]&flagPresent != 0 {
		return ErrOverlap // same-size leaf, or a table holding smaller leaves
	}
	e := uint64(flagPresent) | pfn<<pfnShift
	if target > 1 {
		e |= flagPS
	}
	tbl[i] = e
	*live++
	t.mappedBytes[size] += size.Bytes()
	t.wc.leaf, t.wc.leafIdx = tbl, i
	t.wc.leafLo, t.wc.leafHi, t.wc.leafSize = va, va+size.Bytes(), size
	if target <= 2 { // d is the PD holding the new leaf or its table
		t.wc.pd, t.wc.pdLo = d, units.Align(va, units.Page1G)
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
		// Map left the leaf table's PD in the walk cache.
		tbl, first := t.wc.leaf, t.wc.leafIdx+1
		last := min(512, first+int(count-done))
		i := first
		for ; i < last && tbl[i]&flagPresent == 0; i++ {
			tbl[i] = flagPresent | (pfn+done+uint64(i-first))<<pfnShift
		}
		if mapped := uint64(i - first); mapped > 0 {
			t.wc.pd.used[index(t.wc.leafLo, 2)] += uint16(mapped)
			t.mappedBytes[units.Size4K] += mapped * units.Page4K
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
	d, level := t.root, 4
	if wc := &t.wc; wc.pd != nil && va-wc.pdLo < units.Page1G {
		d, level = wc.pd, 2
	}
	for ; ; level-- {
		i := index(va, level)
		if d.entries[i]&flagPresent == 0 {
			return count
		}
		if d.entries[i]&flagPS != 0 {
			return 0
		}
		if level == 2 {
			tbl, first := d.pages[i], index(va, 1)
			i := first
			for last := first + int(count); i < last && tbl[i]&flagPresent == 0; i++ {
			}
			return uint64(i - first)
		}
		d = d.dirs[i]
	}
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
	tbl, d := &t.root.entries, t.root
	for level := 4; level > target; level-- {
		i := index(va, level)
		e := tbl[i]
		if e&flagPresent == 0 {
			return false
		}
		if e&flagPS != 0 {
			return true
		}
		tbl, d = d.child(level, i)
	}
	return tbl[index(va, target)]&flagPresent != 0
}

// Unmap removes the leaf mapping of exactly the given size at va and returns
// its PFN. Empty intermediate tables are reclaimed.
func (t *Table) Unmap(va uint64, size units.PageSize) (uint64, error) {
	if err := checkVA(va, size); err != nil {
		return 0, err
	}
	t.invalidate()
	target := leafLevel(size)
	top := max(target, 2) // level of the directory holding the leaf or its table
	var path [5]*dir
	d := t.root
	for level := 4; level > top; level-- {
		path[level] = d
		i := index(va, level)
		if d.entries[i]&flagPresent == 0 || d.entries[i]&flagPS != 0 {
			return 0, ErrNotMapped
		}
		d = d.dirs[i]
	}
	tbl, live := &d.entries, &d.live
	if target == 1 {
		i := index(va, 2)
		if d.entries[i]&flagPresent == 0 || d.entries[i]&flagPS != 0 {
			return 0, ErrNotMapped
		}
		tbl, live = d.pages[i], &d.used[i]
	}
	i := index(va, target)
	e := tbl[i]
	if e&flagPresent == 0 {
		return 0, ErrNotMapped
	}
	if target > 1 && e&flagPS == 0 {
		return 0, ErrNotMapped // intermediate table, not a leaf of this size
	}
	pfn := e >> pfnShift
	tbl[i] = 0
	*live--
	t.mappedBytes[size] -= size.Bytes()
	// Reclaim now-empty tables bottom-up, returning them to their pools
	// (they are all-zero at this point, the state newDir hands back out).
	if target == 1 && *live == 0 {
		pi := index(va, 2)
		t.poolPages = append(t.poolPages, d.pages[pi])
		d.pages[pi] = nil
		d.entries[pi] = 0
		d.live--
	}
	for level := top + 1; level <= 4 && d.live == 0; level++ {
		parent := path[level]
		pi := index(va, level)
		parent.dirs[pi] = nil
		parent.entries[pi] = 0
		parent.live--
		t.freeDir(d)
		d = parent
	}
	return pfn, nil
}

// Run is a stretch of consecutive leaf mappings of one size that
// UnmapRuns cleared from one page-table node: the page at
// VA+i*Size.Bytes() was mapped to head frame PFNs[i]. PFNs is the table's
// reused buffer, valid only until the callback returns.
type Run struct {
	VA   uint64
	Size units.PageSize
	PFNs []uint64
}

// UnmapRuns removes every leaf mapping lying wholly inside [lo, hi) in a
// single subtree traversal. It reports the removed mappings in ascending
// VA order as runs: each run is a maximal stretch of consecutive cleared
// entries of one node, so a run never crosses a leaf table or spans an
// unmapped page, and fn is invoked once per run, right after its entries
// are cleared and before the node is reclaimed. fn must not touch the
// table. Counter updates, the table-reclaim sequence (and with it the
// pools' contents) and the final structure are exactly those of per-page
// Unmap calls over the same mappings in ascending VA order — the one
// traversal merely replaces their per-page root descents. Leaves only
// partially inside the range (i.e. larger than it) are left in place.
func (t *Table) UnmapRuns(lo, hi uint64, fn func(Run)) {
	if hi > MaxVA {
		hi = MaxVA
	}
	if lo >= hi {
		return
	}
	t.invalidate()
	t.unmapTable(&t.root.entries, &t.root.live, t.root, 4, 0, lo, hi, fn)
}

// unmapTable clears the leaves of table tbl, at the given level, that lie
// wholly inside [lo, hi); *live is tbl's present-entry count, and d is
// tbl's dir (nil at level 1).
func (t *Table) unmapTable(tbl *page, live *uint16, d *dir, level int, base, lo, hi uint64, fn func(Run)) {
	span := uint64(1) << uint(12+9*(level-1)) // bytes covered per entry
	first, last := 0, 511
	if base < lo {
		first = int((lo - base) / span)
	}
	if base+512*span > hi {
		last = int((hi - base - 1) / span)
	}
	start := -1 // entry index of the pending run's first page
	for i := first; i <= last; i++ {
		e := tbl[i]
		entryBase := base + uint64(i)*span
		leaf := e&flagPresent != 0 && (level == 1 || e&flagPS != 0)
		if leaf && entryBase >= lo && entryBase+span <= hi {
			if start < 0 {
				start = i
			}
			tbl[i] = 0
			t.runPFNs = append(t.runPFNs, e>>pfnShift)
			continue
		}
		// An absent entry, a larger leaf sticking out of the range or a
		// child table ends the pending run.
		if start >= 0 {
			t.endRun(live, base+uint64(start)*span, level, fn)
			start = -1
		}
		if e&flagPresent == 0 || leaf {
			continue
		}
		// Reclaim an emptied table exactly where sequential Unmaps would:
		// right after the removal that emptied it, before any later VA is
		// touched, child-before-parent.
		if level == 2 {
			p := d.pages[i]
			if t.unmapTable(p, &d.used[i], nil, 1, entryBase, lo, hi, fn); d.used[i] != 0 {
				continue
			}
			d.pages[i] = nil
			t.poolPages = append(t.poolPages, p)
		} else {
			c := d.dirs[i]
			if t.unmapTable(&c.entries, &c.live, c, level-1, entryBase, lo, hi, fn); c.live != 0 {
				continue
			}
			d.dirs[i] = nil
			t.freeDir(c)
		}
		tbl[i] = 0
		*live--
	}
	if start >= 0 {
		t.endRun(live, base+uint64(start)*span, level, fn)
	}
}

// endRun accounts the pending run of cleared entries of a table at the
// given level whose present-entry count is *live, starting at va, and
// hands it to fn.
func (t *Table) endRun(live *uint16, va uint64, level int, fn func(Run)) {
	size := sizeOfLevel(level)
	k := len(t.runPFNs)
	*live -= uint16(k)
	t.mappedBytes[size] -= uint64(k) * size.Bytes()
	fn(Run{VA: va, Size: size, PFNs: t.runPFNs})
	t.runPFNs = t.runPFNs[:0]
}

// Lookup returns the leaf mapping covering va, if any. It does not set
// access bits.
func (t *Table) Lookup(va uint64) (Mapping, bool) {
	if va >= MaxVA {
		return Mapping{}, false
	}
	if wc := &t.wc; wc.leaf != nil && va-wc.leafLo < wc.leafHi-wc.leafLo {
		e := wc.leaf[wc.leafIdx]
		return Mapping{
			VA:       wc.leafLo,
			PFN:      e >> pfnShift,
			Size:     wc.leafSize,
			Accessed: e&flagAccessed != 0,
			Dirty:    e&flagDirty != 0,
		}, true
	}
	tbl, i, level, ok := t.descend(va)
	if !ok {
		return Mapping{}, false
	}
	e := tbl[i]
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
// when va falls in its 1GB window, and refreshes the walk cache along the
// way. It returns the table and index of the leaf entry and its level, or
// ok=false if va is unmapped.
func (t *Table) descend(va uint64) (tbl *page, i, level int, ok bool) {
	d, level := t.root, 4
	if wc := &t.wc; wc.pd != nil && va-wc.pdLo < units.Page1G {
		d, level = wc.pd, 2
	}
	for ; level >= 2; level-- {
		i = index(va, level)
		e := d.entries[i]
		if e&flagPresent == 0 {
			return nil, 0, 0, false
		}
		tbl = &d.entries
		if e&flagPS == 0 {
			if level == 3 {
				t.wc.pd, t.wc.pdLo = d.dirs[i], units.Align(va, units.Page1G)
			}
			if level > 2 {
				d = d.dirs[i]
				continue
			}
			tbl, i, level = d.pages[i], index(va, 1), 1
			if tbl[i]&flagPresent == 0 {
				return nil, 0, 0, false
			}
		}
		size := sizeOfLevel(level)
		lo := units.Align(va, size.Bytes())
		t.wc.leaf, t.wc.leafIdx = tbl, i
		t.wc.leafLo, t.wc.leafHi, t.wc.leafSize = lo, lo+size.Bytes(), size
		return tbl, i, level, true
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
	var tbl *page
	var i int
	if wc := &t.wc; wc.leaf != nil && va-wc.leafLo < wc.leafHi-wc.leafLo {
		tbl, i = wc.leaf, wc.leafIdx
	} else {
		var ok bool
		tbl, i, _, ok = t.descend(va)
		if !ok {
			return 0, Mapping{}, false
		}
	}
	e := tbl[i] | flagAccessed
	if write {
		e |= flagDirty
	}
	tbl[i] = e
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
// preserving flags: ReplaceRun of one page.
func (t *Table) Replace(va uint64, size units.PageSize, newPFN uint64) error {
	var old [1]uint64
	_, err := t.ReplaceRun(va, size, []uint64{newPFN}, old[:])
	return err
}

// ReplaceRun repoints the len(pfns) consecutive leaf mappings of the given
// size at va, va+size, … to pfns, preserving their flags, and writes each
// one's old PFN to old, which must be as long as pfns. It is exactly
// Replace(va+j*size, size, pfns[j]) for j = 0, 1, … up to the first page
// not mapped at that size, whose error it returns with the number of
// mappings replaced; it descends once per page-table node instead of once
// per page. It is the page-table half of a compaction move. The structure
// does not change, so the walk cache stays valid.
func (t *Table) ReplaceRun(va uint64, size units.PageSize, pfns, old []uint64) (int, error) {
	target := leafLevel(size)
	var tbl *page
	for j, pfn := range pfns {
		v := va + uint64(j)*size.Bytes()
		i := index(v, target)
		if tbl == nil || i == 0 {
			if err := checkVA(v, size); err != nil {
				return j, err
			}
			var d *dir
			tbl, d = &t.root.entries, t.root
			for level := 4; level > target; level-- {
				e := tbl[index(v, level)]
				if e&flagPresent == 0 || e&flagPS != 0 {
					return j, ErrNotMapped
				}
				tbl, d = d.child(level, index(v, level))
			}
		}
		e := tbl[i]
		if e&flagPresent == 0 || (target > 1 && e&flagPS == 0) {
			return j, ErrNotMapped
		}
		old[j] = e >> pfnShift
		tbl[i] = e&(flagPresent|flagAccessed|flagDirty|flagPS) | pfn<<pfnShift
	}
	return len(pfns), nil
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
	walkTable(&t.root.entries, t.root, 4, 0, lo, hi, fn)
}

func walkTable(tbl *page, d *dir, level int, base, lo, hi uint64, fn func(Mapping) bool) bool {
	span := uint64(1) << uint(12+9*(level-1)) // bytes covered per entry
	first, last := 0, 511
	if base < lo {
		first = int((lo - base) / span)
	}
	if base+512*span > hi {
		last = int((hi - base - 1) / span)
	}
	for i := first; i <= last; i++ {
		e := tbl[i]
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
		ct, cd := d.child(level, i)
		if !walkTable(ct, cd, level-1, entryBase, lo, hi, fn) {
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
	t.forEachEntry(lo, hi, func(e *uint64) {
		if *e&flagAccessed != 0 {
			*e &^= flagAccessed
			cleared++
		}
	})
	return cleared
}

// forEachEntry calls fn on every leaf entry intersecting [lo, hi).
func (t *Table) forEachEntry(lo, hi uint64, fn func(*uint64)) {
	eachEntry(&t.root.entries, t.root, 4, 0, lo, hi, fn)
}

func eachEntry(tbl *page, d *dir, level int, base, lo, hi uint64, fn func(*uint64)) {
	span := uint64(1) << uint(12+9*(level-1))
	first, last := 0, 511
	if base < lo {
		first = int((lo - base) / span)
	}
	if base+512*span > hi {
		last = int((hi - base - 1) / span)
	}
	for i := first; i <= last; i++ {
		e := tbl[i]
		if e&flagPresent == 0 {
			continue
		}
		entryBase := base + uint64(i)*span
		if level == 1 || e&flagPS != 0 {
			fn(&tbl[i])
			continue
		}
		ct, cd := d.child(level, i)
		eachEntry(ct, cd, level-1, entryBase, lo, hi, fn)
	}
}

// MappedBytes returns the bytes currently mapped with the given page size.
func (t *Table) MappedBytes(size units.PageSize) uint64 { return t.mappedBytes[size] }

// MappedPages returns the number of leaf mappings of the given page size,
// derived from MappedBytes. Only tests ask for it.
func (t *Table) MappedPages(size units.PageSize) uint64 {
	return t.mappedBytes[size] / size.Bytes()
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
	t.forEachEntry(va, va+1, func(e *uint64) {
		if accessed {
			*e |= flagAccessed
		}
		if dirty {
			*e |= flagDirty
		}
	})
}
