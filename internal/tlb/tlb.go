// Package tlb simulates the translation caches of an x86 core: per-page-size
// L1 TLBs, a unified L2 TLB, and the page-walk (paging-structure) caches
// that shorten radix walks. The default geometry is the Intel Skylake server
// configuration of the paper's Table 1:
//
//	L1d  4KB: 64 entries, 4-way        L2 4KB/2MB: 1536 entries, 12-way
//	L1d  2MB: 32 entries, 4-way        L2 1GB:     16 entries, 4-way
//	L1d  1GB:  4 entries, fully-assoc.
//
// These structures are what the paper calls the "micro-architectural
// resources devoted to 1GB pages" that go underutilized without OS support:
// the 4+16 dedicated 1GB entries exist on every Skylake core whether or not
// the OS ever allocates a 1GB page.
package tlb

import (
	"fmt"

	"repro/internal/stream"
	"repro/internal/units"
)

// TLB is one set-associative translation buffer with true-LRU replacement.
//
// The probe loop is the simulator's hottest code (every sampled reference
// probes up to four TLBs plus the paging-structure caches), so the storage
// is a single flat slice — one bounds-checked indexation per set, ways
// contiguous in one cache line — and invalid ways are encoded as a reserved
// tag value instead of a parallel bool slice.
type TLB struct {
	sets int
	ways int
	// mask is sets-1 when sets is a power of two (the common case; set
	// selection becomes an AND), otherwise 0 and selection falls back to
	// modulo.
	mask uint64
	// lines holds sets×ways entries; within a set, most-recently-used
	// first. invalidTag marks empty ways.
	lines []uint64
	// liveBySize totals the live entries per size salt (tag>>60) across
	// all sets, maintained by Insert/insertMissed/Invalidate/Flush. A zero
	// total proves any probe for that size misses without even computing
	// its tag — and miss probes touch no state, so the skip is invisible.
	// PWC tags carry no salt and count under salt 0, which nothing reads.
	liveBySize [units.NumPageSizes + 1]uint32
	// live counts the non-invalidated ways per set. live[s] == ways proves
	// the set is full, so an insert's empty-way scan can be skipped (a full
	// set always evicts the LRU way); live[s] == 0 proves a probe of set s
	// misses (mayContain).
	live []uint8
	// sigs, when enabled by trackSig, is a per-set counting signature over
	// the set's live tags: 32 byte-wide buckets packed into four uint64 words
	// per set, bucket sigBucket(tag) counting the live ways whose tag hashes
	// there. A zero bucket proves the tag absent without scanning the ways —
	// pure acceleration, since the skipped scan would find nothing and touch
	// nothing. The filter is consulted only at Hierarchy call sites (the
	// ProbeL2 sweep) and in Invalidate, never inside Lookup/lookupHitSlow:
	// folding it into those paths pushes them past the inliner's budget and
	// costs more than the skipped scans save. The Hierarchy enables it for
	// the L2 structures only, whose wide sets (12-way shared) make miss
	// scans expensive.
	sigs []uint64
}

// invalidTag marks an empty way. No real tag collides with it: composed
// tags (see tag()) carry a nonzero size salt in bits 60+ below bit 63, and
// PWC tags are right-shifted VAs well below 2^48.
const invalidTag = ^uint64(0)

// NewTLB creates a TLB with the given geometry. entries = sets*ways.
func NewTLB(sets, ways int) *TLB {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("tlb: invalid geometry %dx%d", sets, ways))
	}
	if ways > 255 {
		panic(fmt.Sprintf("tlb: %d ways overflows the per-set live counter", ways))
	}
	t := &TLB{sets: sets, ways: ways}
	if sets&(sets-1) == 0 {
		t.mask = uint64(sets - 1)
	}
	t.lines = make([]uint64, sets*ways)
	for i := range t.lines {
		t.lines[i] = invalidTag
	}
	t.live = make([]uint8, sets)
	return t
}

// base returns the flat-slice offset of tag's set.
func (t *TLB) base(tag uint64) int {
	return t.setOf(tag) * t.ways
}

// setOf returns the set index tag maps to.
func (t *TLB) setOf(tag uint64) int {
	if t.mask != 0 {
		return int(tag & t.mask)
	}
	return int(tag % uint64(t.sets))
}

// trackSig enables the per-set counting signature (see sigs).
func (t *TLB) trackSig() { t.sigs = make([]uint64, 4*t.sets) }

// sigBucket hashes a tag to its counting-signature bucket (0..31). 32
// buckets keep the filter selective even for the 12-way shared L2, whose
// sets occupy most of a narrower bucket space.
func sigBucket(tag uint64) uint { return uint(tag * 0x9e3779b97f4a7c15 >> 59) }

// sigAdd/sigDel adjust the signature bucket count for tag in set s. No-ops
// when the signature is disabled.
func (t *TLB) sigAdd(s int, tag uint64) {
	if t.sigs == nil {
		return
	}
	b := sigBucket(tag)
	t.sigs[4*s+int(b>>3)] += 1 << ((b & 7) * 8)
}

func (t *TLB) sigDel(s int, tag uint64) {
	if t.sigs == nil {
		return
	}
	b := sigBucket(tag)
	t.sigs[4*s+int(b>>3)] -= 1 << ((b & 7) * 8)
}

// absentIn reports whether the signature proves tag is not in set s, the
// set index its caller has already computed. A false result proves nothing
// (disabled filter, or a bucket collision with a live tag), so the caller
// probes; a true result makes the probe skippable — it would find nothing
// and touch nothing.
func (t *TLB) absentIn(s int, tag uint64) bool {
	if t.sigs == nil {
		return false
	}
	b := sigBucket(tag)
	return t.sigs[4*s+int(b>>3)]>>((b&7)*8)&0xff == 0
}

// countInc adjusts the live total of tag's size salt by d (±1).
func (t *TLB) countInc(tag uint64, d int) { t.liveBySize[tag>>60] += uint32(d) }

// setFull reports whether set s holds no invalidated way. A true result
// lets an insert skip the empty-way scan entirely: a full set's insert
// always evicts the LRU way.
func (t *TLB) setFull(s int) bool { return t.live[s] == uint8(t.ways) }

// hasSize reports whether any live entry of the given size exists anywhere in
// the TLB; false proves a probe for that size would miss regardless of VA.
func (t *TLB) hasSize(s units.PageSize) bool { return t.liveBySize[s+1] != 0 }

// mayContain reports whether tag's set holds any live entry; false proves
// a probe would miss without scanning the ways. The Hierarchy asks it of
// its L1s only, each of which holds one page size, so a set with a live
// entry there holds one of the probed size.
func (t *TLB) mayContain(tag uint64) bool { return t.live[t.setOf(tag)] != 0 }

// Lookup probes for tag, promoting it to MRU on a hit. The MRU way is
// tested before the general scan: it is where temporal locality lands, and
// the early return keeps the fast path small enough to inline at hot call
// sites. A miss touches no state.
func (t *TLB) Lookup(tag uint64) bool {
	b := t.base(tag)
	return t.lines[b] == tag || t.lookupHitSlow(tag, b)
}

func (t *TLB) lookupHitSlow(tag uint64, b int) bool {
	set := t.lines[b : b+t.ways]
	for w := 1; w < len(set); w++ {
		if set[w] == tag {
			// Manual backward shift: ways are tiny (4-32), so an explicit
			// loop beats copy()'s memmove dispatch on the hottest path in
			// the simulator.
			for j := w; j > 0; j-- {
				set[j] = set[j-1]
			}
			set[0] = tag
			return true
		}
	}
	return false
}

// Insert installs tag as MRU of its set, evicting the LRU way if needed.
func (t *TLB) Insert(tag uint64) {
	b := t.base(tag)
	set := t.lines[b : b+t.ways]
	// Already present? Just promote. (This scan must complete before
	// insertMissed's empty-way scan: an invalidated way at a lower index
	// than the existing entry must not cause a duplicate insertion.)
	for w, line := range set {
		if line == tag {
			for j := w; j > 0; j-- {
				set[j] = set[j-1]
			}
			set[0] = tag
			return
		}
	}
	t.insertMissed(tag)
}

// insertMissed is Insert for a tag the caller has proven absent (by a
// completed miss probe of this structure, or Insert's own scan): the
// duplicate-promotion scan is skipped. It fills an invalidated way if one
// exists; otherwise the LRU way (last) falls out. Either way the new entry
// becomes MRU.
func (t *TLB) insertMissed(tag uint64) {
	s := t.setOf(tag)
	b := s * t.ways
	set := t.lines[b : b+t.ways]
	slot := t.ways - 1
	if !t.setFull(s) {
		for w, line := range set {
			if line == invalidTag {
				slot = w
				break
			}
		}
	}
	if old := set[slot]; old != invalidTag {
		t.countInc(old, -1)
		t.sigDel(s, old)
	} else {
		t.live[s]++
	}
	t.countInc(tag, +1)
	t.sigAdd(s, tag)
	for j := slot; j > 0; j-- {
		set[j] = set[j-1]
	}
	set[0] = tag
}

// Invalidate removes tag if present.
func (t *TLB) Invalidate(tag uint64) {
	s := t.setOf(tag)
	if t.absentIn(s, tag) {
		return // the scan below would find nothing
	}
	b := s * t.ways
	set := t.lines[b : b+t.ways]
	for w, line := range set {
		if line == tag {
			set[w] = invalidTag
			t.countInc(tag, -1)
			t.sigDel(s, tag)
			t.live[s]--
			return
		}
	}
}

// invalidateRange removes the n consecutive tags first, first+1, … (one
// size's pages at consecutive VAs). From n = sets on, a probe per tag costs
// at least one pass over the lines, so it makes that one pass instead,
// invalidating every line whose tag falls in the range; below, it goes tag
// by tag. Both are exactly n Invalidate calls: Invalidate never reorders a
// set, a tag is live in at most one way, and the live, size and signature
// counts it adjusts are sums, so neither the order of the removals nor the
// probing of absent tags matters.
func (t *TLB) invalidateRange(first, n uint64) {
	if n < uint64(t.sets) {
		for i := uint64(0); i < n; i++ {
			t.Invalidate(first + i)
		}
		return
	}
	for w, line := range t.lines {
		if line-first < n { // invalidTag and other sizes' salts fall outside
			s := w / t.ways
			t.lines[w] = invalidTag
			t.countInc(line, -1)
			t.sigDel(s, line)
			t.live[s]--
		}
	}
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for i := range t.lines {
		t.lines[i] = invalidTag
	}
	t.liveBySize = [units.NumPageSizes + 1]uint32{}
	clear(t.live)
	clear(t.sigs)
}

// Geometry describes one TLB's shape.
type Geometry struct {
	Sets int
	Ways int
}

// Config is the full translation-cache configuration of one core.
type Config struct {
	L1 [units.NumPageSizes]Geometry
	// L2Shared is the unified L2 used by 4KB and 2MB translations.
	L2Shared Geometry
	// L2Huge is the separate L2 structure for 1GB translations.
	L2Huge Geometry
	// PWC are the paging-structure caches: [0] caches PDEs (pointer to PT),
	// [1] caches PDPTEs (pointer to PD), [2] caches PML4Es (pointer to PDPT).
	PWC [3]Geometry
}

// Skylake returns the configuration of the paper's experimental platform
// (Table 1: Intel Xeon Gold 6140). PWC sizes follow common estimates for
// Intel's (undocumented) paging-structure caches.
func Skylake() Config {
	return Config{
		L1: [units.NumPageSizes]Geometry{
			units.Size4K: {Sets: 16, Ways: 4}, // 64 entries
			units.Size2M: {Sets: 8, Ways: 4},  // 32 entries
			units.Size1G: {Sets: 1, Ways: 4},  // 4 entries, fully associative
		},
		L2Shared: Geometry{Sets: 128, Ways: 12}, // 1536 entries
		L2Huge:   Geometry{Sets: 4, Ways: 4},    // 16 entries
		PWC: [3]Geometry{
			{Sets: 1, Ways: 32}, // PDE cache
			{Sets: 1, Ways: 4},  // PDPTE cache
			{Sets: 1, Ways: 2},  // PML4E cache
		},
	}
}

// Level identifies where a translation was satisfied.
type Level int

// Translation service levels.
const (
	HitL1 Level = iota
	HitL2
	Miss // page walk required
)

// Hierarchy is the per-core, two-level TLB system.
type Hierarchy struct {
	l1 [units.NumPageSizes]*TLB
	// l2 maps each page size to its L2 structure; 4KB and 2MB share one.
	l2 [units.NumPageSizes]*TLB

	// sweepHint is the page size of SweepL1Runs' most recent L1 hit. Streams
	// are heavily biased toward one page size at a time, so probing the
	// last-hitting size first resolves most sweep references with a single
	// lookup. Pure performance state: probe order across sizes cannot
	// change which entry hits (a VA never has live entries at two sizes,
	// see Probe), and a miss probe touches no state.
	sweepHint units.PageSize
	// probeHint is the same idea for ProbeL2's most recent L2 hit.
	probeHint units.PageSize
}

// NewHierarchy builds a TLB hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		g := cfg.L1[s]
		h.l1[s] = NewTLB(g.Sets, g.Ways)
	}
	shared := NewTLB(cfg.L2Shared.Sets, cfg.L2Shared.Ways)
	h.l2[units.Size4K] = shared
	h.l2[units.Size2M] = shared
	h.l2[units.Size1G] = NewTLB(cfg.L2Huge.Sets, cfg.L2Huge.Ways)
	shared.trackSig()
	h.l2[units.Size1G].trackSig()
	return h
}

// tag composes the lookup tag for a page: the VPN at the page's own
// granularity, salted with the size in the high bits so 4KB and 2MB entries
// sharing the L2 cannot alias while set indexing still uses the VPN's low
// bits (set counts are powers of two).
func tag(va uint64, size units.PageSize) uint64 {
	// 12+9*size is Shift() for the three x86 sizes, computed without the
	// switch (and its defensive panic), which keeps tag inlinable at the
	// pipeline's hottest call sites.
	return va>>(12+9*uint(size)) | uint64(size+1)<<60
}

// Probe translates one reference whose page size is not known up front by
// probing every per-size sub-TLB with the VA alone and recovering the page
// size from the tag that hits. On a hit it performs exactly the state
// updates of one lookup at the mapped size — L1 hits promote to MRU, L2
// hits additionally install the entry in L1 — so a Probe hit is
// bit-identical to the per-size reference Access (kept with the package's
// tests) called with the mapped size. On a full miss
// nothing is touched; the caller resolves the size from the page table and
// installs the entry (AccessMissedAll).
//
// Soundness rests on the shootdown discipline (DESIGN.md §5a): every remap
// flushes the affected page, so between flushes an entry's tag — which
// encodes the page size it was installed at — is authoritative. Tags are
// salted per size, so a hit can only come from an entry installed for this
// VA at that size, and a VA never has live entries at two sizes at once.
func (h *Hierarchy) Probe(va uint64) (Level, units.PageSize, bool) {
	var tags [units.NumPageSizes]uint64
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		tags[s] = tag(va, s)
	}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		if h.l1[s].hasSize(s) && h.l1[s].Lookup(tags[s]) {
			return HitL1, s, true
		}
	}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		if h.l2[s].hasSize(s) && h.l2[s].Lookup(tags[s]) {
			h.l1[s].Insert(tags[s])
			return HitL2, s, true
		}
	}
	return HitL1, 0, false
}

// SweepL1Runs is the run-coalesced fast path: it consumes the longest
// prefix of runs whose leading references all hit an L1 TLB, writes each
// consumed run's page size (recovered from the size-salted tag that hit)
// into sizes, and returns the consumed count. It parks at the first
// run whose leading reference misses every L1 — that run and the rest are
// untouched, and the caller resolves the parked reference through the
// L2/walk path and bulk-applies the rest of its run.
//
// Byte-identity with per-reference Probe calls holds for two reasons
// (DESIGN.md §5c). The sweep stops before any state transition that could
// alter a later probe's outcome: an L1 hit only reorders LRU ranks within
// the hitting set (membership is unchanged, so every later probe sees the
// same hit/miss outcome), whereas an L2 hit or a walk would insert entries
// and evict others. And only the leading reference probes: a hit promotes
// the tag to MRU of its set, so each of the run's remaining Len-1
// references — same page, hence same tag — would take the MRU fast path,
// which changes nothing.
func (h *Hierarchy) SweepL1Runs(runs []stream.Run, sizes []uint8) int {
	hint := h.sweepHint
	k := 0
sweep:
	for ; k < len(runs); k++ {
		va := runs[k].VA
		// The hint probe is hand-inlined Lookup (MRU check, then the
		// inlinable slow scan): one probe per run is the pipeline's hottest
		// edge, too hot to pay a call that exceeds the inliner's budget.
		l1 := h.l1[hint]
		t := tag(va, hint)
		if b := l1.base(t); l1.lines[b] != t && !l1.lookupHitSlow(t, b) {
			for s := units.PageSize(0); s < units.NumPageSizes; s++ {
				if s == hint || !h.l1[s].hasSize(s) {
					continue
				}
				t := tag(va, s)
				if h.l1[s].mayContain(t) && h.l1[s].Lookup(t) {
					sizes[k] = uint8(s)
					hint = s
					continue sweep
				}
			}
			break
		}
		sizes[k] = uint8(hint)
	}
	h.sweepHint = hint
	return k
}

// ProbeL2 is Probe for a reference already proven to miss every L1 — the
// state SweepL1Runs leaves its parked reference in. It performs exactly what
// Probe's L2 stage would: the skipped L1 probes are Lookup misses, which
// touch no state, so skipping them is invisible. On an L2 hit the entry is
// installed in its L1 exactly as Probe does; on a full miss nothing is
// touched.
func (h *Hierarchy) ProbeL2(va uint64) (units.PageSize, bool) {
	hint := h.probeHint
	// Hand-inlined Lookup for the hint probe, as in SweepL1Runs; the set
	// index is computed once and shared by the signature test and the scan.
	l2 := h.l2[hint]
	t := tag(va, hint)
	if s := l2.setOf(t); !l2.absentIn(s, t) {
		if b := s * l2.ways; l2.lines[b] == t || l2.lookupHitSlow(t, b) {
			h.l1[hint].insertMissed(t) // SweepL1Runs proved t absent from this L1
			return hint, true
		}
	}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		if s == hint || !h.l2[s].hasSize(s) {
			continue
		}
		// Same hand-inlined probe as the hint path: one setOf serves the
		// signature test, the MRU compare and the slow scan.
		l2 := h.l2[s]
		t := tag(va, s)
		si := l2.setOf(t)
		if l2.absentIn(si, t) {
			continue
		}
		if b := si * l2.ways; l2.lines[b] != t && !l2.lookupHitSlow(t, b) {
			continue
		}
		h.l1[s].insertMissed(t)
		h.probeHint = s
		return s, true
	}
	return 0, false
}

// AccessMissedAll installs the translation of a reference already proven
// — by a completed Probe, or by SweepL1Runs followed by ProbeL2 — to miss
// every structure in the hierarchy: into its size's L2, then its L1, as a
// full miss does. The installs skip their duplicate-promotion scans, since
// the tag is known absent.
func (h *Hierarchy) AccessMissedAll(va uint64, size units.PageSize) {
	t := tag(va, size)
	h.l2[size].insertMissed(t)
	h.l1[size].insertMissed(t)
}

// ForEachEntry visits every live translation in the hierarchy as the
// (va, size) pair recovered from its size-salted tag. A page cached at both
// levels is reported once per level; the shared 4KB/2MB L2 structure is
// visited once. Return false to stop early. The invariant auditor uses this
// to check that no TLB entry outlives its mapping.
func (h *Hierarchy) ForEachEntry(fn func(va uint64, size units.PageSize) bool) {
	visit := func(t *TLB) bool {
		for _, line := range t.lines {
			if line == invalidTag {
				continue
			}
			size := units.PageSize(line>>60) - 1
			va := (line & (1<<60 - 1)) << size.Shift()
			if !fn(va, size) {
				return false
			}
		}
		return true
	}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		if !visit(h.l1[s]) {
			return
		}
	}
	if !visit(h.l2[units.Size4K]) { // the shared 4KB/2MB structure
		return
	}
	visit(h.l2[units.Size1G])
}

// InvalidatePage removes a single page's entries from all levels (one page
// of a TLB shootdown).
func (h *Hierarchy) InvalidatePage(va uint64, size units.PageSize) {
	t := tag(va, size)
	h.l1[size].Invalidate(t)
	h.l2[size].Invalidate(t)
}

// InvalidateRange removes the entries of the n pages of the given size at
// va, va+size, … from all levels: exactly InvalidatePage on each of them
// (see invalidateRange). A structure that holds no entry of the size is
// skipped.
func (h *Hierarchy) InvalidateRange(va, n uint64, size units.PageSize) {
	t := tag(va, size)
	if h.l1[size].hasSize(size) {
		h.l1[size].invalidateRange(t, n)
	}
	if h.l2[size].hasSize(size) {
		h.l2[size].invalidateRange(t, n)
	}
}

// FlushAll empties every structure (full shootdown / context switch).
func (h *Hierarchy) FlushAll() {
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		h.l1[s].Flush()
	}
	h.l2[units.Size4K].Flush()
	h.l2[units.Size1G].Flush()
}

// PWC models the paging-structure caches that let the hardware walker skip
// upper page-table levels. Cache 0 holds PDE entries (tags at 2MB
// granularity, useful only to 4KB walks), cache 1 holds PDPTEs (1GB
// granularity), cache 2 holds PML4Es (512GB granularity).
type PWC struct {
	caches [3]*TLB
}

// NewPWC builds the paging-structure caches from cfg.
func NewPWC(cfg Config) *PWC {
	p := &PWC{}
	for i, g := range cfg.PWC {
		p.caches[i] = NewTLB(g.Sets, g.Ways)
	}
	return p
}

var pwcShift = [3]uint{21, 30, 39}

// WalkAccesses returns the number of page-table memory accesses a hardware
// walk for va (mapped at the given size) performs given the current
// paging-structure cache contents, and updates those caches with the
// entries the walk traverses.
//
// Without any PWC hit this is pagetable.WalkAccesses: 4/3/2 for 4KB/2MB/1GB.
// A hit in a deeper cache skips all levels above it.
func (p *PWC) WalkAccesses(va uint64, size units.PageSize) int {
	// deepest is the index of the deepest PWC applicable to this walk:
	// a walk that ends at the PDE (2MB page) cannot use the PDE cache, etc.
	var deepest int
	switch size {
	case units.Size4K:
		deepest = 0
	case units.Size2M:
		deepest = 1
	default:
		deepest = 2
	}
	accesses := 4 - deepest // full walk if nothing hits: 4/3/2
	hit := 3                // level of the first (deepest) hit; 3 = none
	for c := deepest; c < 3; c++ {
		// Hand-inlined Lookup (MRU compare, then the inlinable slow scan):
		// one probe per level per walk is too hot for a non-inlined call.
		pc := p.caches[c]
		t := va >> pwcShift[c]
		if b := pc.base(t); pc.lines[b] != t && !pc.lookupHitSlow(t, b) {
			continue
		}
		accesses = 1 + (c - deepest)
		hit = c
		break
	}
	// The walk loads (and thus caches) every traversed entry. Each level's
	// install is specialized by what the probe loop proved: below the hit
	// the probe missed, so the duplicate-promotion scan is skippable; at the
	// hit level the probe already promoted the entry to MRU, so Insert would
	// change nothing at all; above it nothing was probed and the general
	// Insert runs. Contents after this loop are exactly Insert-everywhere's.
	for c := deepest; c < 3; c++ {
		switch t := va >> pwcShift[c]; {
		case c < hit:
			p.caches[c].insertMissed(t)
		case c > hit:
			p.caches[c].Insert(t)
		}
	}
	return accesses
}

// Flush empties the paging-structure caches.
func (p *PWC) Flush() {
	for _, c := range p.caches {
		c.Flush()
	}
}
