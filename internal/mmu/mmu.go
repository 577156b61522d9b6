// Package mmu is the translation front-end of a simulated core: every
// memory reference goes through the TLB hierarchy; misses trigger a page
// walk whose memory-access count is shortened by the paging-structure
// caches; under virtualization the walk is two-dimensional.
//
// The nested-walk arithmetic follows §2 of the paper: with g guest-walk
// accesses and h host-walk accesses per guest-structure access, a nested
// walk costs g + (g+1)·h memory accesses — 24 for 4KB+4KB, 15 for 2MB+2MB,
// 8 for 1GB+1GB before paging-structure caches.
//
// Hardware TLBs cache the combined gVA→hPA translation at the smaller of
// the guest and host page sizes, which is why the paper's Figure 2 pairs
// page sizes at both levels: a 1GB guest page over a 4KB host mapping still
// thrashes the 4KB TLB.
package mmu

import (
	"fmt"

	"repro/internal/pagetable"
	"repro/internal/perfmodel"
	"repro/internal/stream"
	"repro/internal/tlb"
	"repro/internal/units"
)

// MMU simulates one core's translation hardware.
type MMU struct {
	TLB *tlb.Hierarchy
	// PWC is the paging-structure cache used for the (guest) walk.
	PWC *tlb.PWC
	// HostPWC shortens the host dimension of nested walks; nil for native
	// operation.
	HostPWC *tlb.PWC

	// BySize accumulates translation stats per effective page size.
	BySize [units.NumPageSizes]perfmodel.TranslationStats
	// Faults counts references to unmapped addresses (the caller should
	// fault and retry).
	Faults uint64

	// ShadowCheck is the test-only coherence mode: every TLB fast-path hit
	// is cross-checked against the software page walk, and any divergence —
	// a stale entry surviving a remap, or a probed page size that disagrees
	// with the (effective) mapped size — panics. It exists to prove the
	// flush discipline the fast path depends on (DESIGN.md §5a) and costs a
	// full page-table walk per hit, so it must stay off outside tests.
	ShadowCheck bool

	// sweepSizes is TranslateRuns' reusable per-run page-size scratch,
	// sized to the longest run slice seen.
	sweepSizes []uint8
}

// New creates a native-mode MMU with the given translation-cache config.
func New(cfg tlb.Config) *MMU {
	return &MMU{TLB: tlb.NewHierarchy(cfg), PWC: tlb.NewPWC(cfg)}
}

// NewNested creates an MMU for virtualized runs: guest and host dimensions
// get their own paging-structure caches.
func NewNested(cfg tlb.Config) *MMU {
	m := New(cfg)
	m.HostPWC = tlb.NewPWC(cfg)
	return m
}

// Translate performs one native reference. It returns false if va is
// unmapped (a page fault the caller must service before retrying).
//
// The common case — the overwhelming majority of references in any sampled
// stream — hits the TLB, and hardware never walks the page table on a TLB
// hit. The software model mirrors that asymmetry: a VA-only TLB probe runs
// first, and pagetable.Lookup is consulted only on a probe miss (or fault).
// This is sound because every remap shoots the page down (kernel.Shootdown →
// FlushPage), so between flushes TLB entries are authoritative; it is
// bit-identical because the probed tag carries the page size, which is all
// the hit path ever used from the mapping.
func (m *MMU) Translate(pt *pagetable.Table, va uint64, write bool) bool {
	if lvl, size, ok := m.TLB.Probe(va); ok {
		return m.hitNative(pt, va, size, lvl)
	}
	_, ok := m.missNative(pt, va, write)
	return ok
}

// resolveL1Missed is Translate for a reference already proven (by
// tlb.SweepL1Runs) to miss every L1: the probe starts at the L2 stage. The
// skipped L1 probes are stateless misses, so the outcome and every state
// transition match Translate exactly. It reports the page size the
// reference resolved at. The run-coalesced pipeline needs the size to
// bulk-charge the rest of the run: resolving the leading reference leaves
// its page's tag MRU in the L1 of that size (ProbeL2's insertMissed and the
// walk's AccessMissedAll both install at MRU), so every remaining
// same-page reference is a guaranteed L1 hit at exactly that size.
func (m *MMU) resolveL1Missed(pt *pagetable.Table, va uint64, write bool) (units.PageSize, bool) {
	if size, ok := m.TLB.ProbeL2(va); ok {
		return size, m.hitNative(pt, va, size, tlb.HitL2)
	}
	return m.missNative(pt, va, write)
}

// hitNative finishes a native translation satisfied by the TLB probe.
func (m *MMU) hitNative(pt *pagetable.Table, va uint64, size units.PageSize, lvl tlb.Level) bool {
	if m.ShadowCheck {
		m.shadowCheckNative(pt, va, size)
	}
	st := &m.BySize[size]
	st.Accesses++
	if lvl == tlb.HitL2 {
		st.L2Hits++
	}
	return true
}

// missNative resolves a native reference that missed the whole TLB probe:
// page-table lookup, walk accounting, entry installation — or a fault. It
// reports the mapped page size so run-coalesced callers can bulk-charge the
// rest of the reference's run at it.
func (m *MMU) missNative(pt *pagetable.Table, va uint64, write bool) (units.PageSize, bool) {
	// One walk resolves the mapping AND sets the accessed (and dirty) bits,
	// exactly as the hardware walker does — a separate Lookup would descend
	// to the same leaf twice.
	_, mapping, ok := pt.Translate(va, write)
	if !ok {
		m.Faults++
		return 0, false
	}
	size := mapping.Size
	st := &m.BySize[size]
	st.Accesses++
	// The probe that routed us here covered every structure at every size,
	// so this install cannot hit anything.
	m.TLB.AccessMissedAll(va, size)
	st.Walks++
	st.WalkMemAccesses += uint64(m.PWC.WalkAccesses(va, size))
	return size, true
}

// shadowCheckNative verifies a native fast-path hit against the page table.
func (m *MMU) shadowCheckNative(pt *pagetable.Table, va uint64, size units.PageSize) {
	mapping, ok := pt.Lookup(va)
	if !ok {
		panic(fmt.Sprintf("mmu: shadow coherence: TLB hit at %#x (%v) but page is unmapped — stale entry survived a remap", va, size))
	}
	if mapping.Size != size {
		panic(fmt.Sprintf("mmu: shadow coherence: TLB hit at %#x probed size %v but page table maps %v", va, size, mapping.Size))
	}
}

// shadowCheckNested verifies a nested fast-path hit against both tables.
func (m *MMU) shadowCheckNested(gpt, hpt *pagetable.Table, va uint64, eff units.PageSize) {
	gm, ok := gpt.Lookup(va)
	if !ok {
		panic(fmt.Sprintf("mmu: shadow coherence: TLB hit at gVA %#x (%v) but guest page is unmapped — stale entry survived a remap", va, eff))
	}
	gpa := units.FrameAddr(gm.PFN) + (va - gm.VA)
	hm, ok := hpt.Lookup(gpa)
	if !ok {
		panic(fmt.Sprintf("mmu: shadow coherence: gPA %#x of gVA %#x not backed by host mapping", gpa, va))
	}
	want := gm.Size
	if hm.Size < want {
		want = hm.Size
	}
	if want != eff {
		panic(fmt.Sprintf("mmu: shadow coherence: TLB hit at gVA %#x probed size %v but effective mapped size is %v (guest %v, host %v)", va, eff, want, gm.Size, hm.Size))
	}
}

// TranslateNested performs one reference in a VM: gVA→gPA through the guest
// table, gPA→hPA through the host table. The TLB caches the combined
// translation at the smaller of the two page sizes. It returns false on a
// guest fault; a missing host mapping panics, because the hypervisor in
// this simulator always backs guest memory.
func (m *MMU) TranslateNested(gpt, hpt *pagetable.Table, va uint64, write bool) bool {
	if lvl, eff, ok := m.TLB.Probe(va); ok {
		return m.hitNested(gpt, hpt, va, eff, lvl)
	}
	_, ok := m.missNested(gpt, hpt, va, write)
	return ok
}

// resolveNestedL1Missed is resolveL1Missed for the nested path
// (TranslateNested with the L1 probes skipped): the reported size is the
// effective (combined gVA→hPA) page size the TLB entry was installed at,
// which is what the rest of the run hits in the L1.
func (m *MMU) resolveNestedL1Missed(gpt, hpt *pagetable.Table, va uint64, write bool) (units.PageSize, bool) {
	if eff, ok := m.TLB.ProbeL2(va); ok {
		return eff, m.hitNested(gpt, hpt, va, eff, tlb.HitL2)
	}
	return m.missNested(gpt, hpt, va, write)
}

// hitNested finishes a nested translation satisfied by the TLB probe.
// Combined gVA→hPA entries are tagged at the effective page size, so a hit
// recovers eff without touching either dimension's table.
func (m *MMU) hitNested(gpt, hpt *pagetable.Table, va uint64, eff units.PageSize, lvl tlb.Level) bool {
	if m.ShadowCheck {
		m.shadowCheckNested(gpt, hpt, va, eff)
	}
	st := &m.BySize[eff]
	st.Accesses++
	if lvl == tlb.HitL2 {
		st.L2Hits++
	}
	return true
}

// missNested resolves a nested reference that missed the whole TLB probe:
// the 2D walk — or a guest fault. It reports the effective page size for
// run-coalesced callers.
func (m *MMU) missNested(gpt, hpt *pagetable.Table, va uint64, write bool) (units.PageSize, bool) {
	// As in missNative, each dimension's walk resolves its mapping and sets
	// its accessed/dirty bits in one descent.
	_, gm, ok := gpt.Translate(va, write)
	if !ok {
		m.Faults++
		return 0, false
	}
	gpa := units.FrameAddr(gm.PFN) + (va - gm.VA)
	_, hm, ok := hpt.Translate(gpa, write)
	if !ok {
		panic("mmu: guest physical address not backed by host mapping")
	}
	eff := gm.Size
	if hm.Size < eff {
		eff = hm.Size
	}
	st := &m.BySize[eff]
	st.Accesses++
	// As in missNative: the routing probe proved a full-hierarchy miss.
	m.TLB.AccessMissedAll(va, eff)
	st.Walks++
	g := m.PWC.WalkAccesses(va, gm.Size)
	h := m.HostPWC.WalkAccesses(gpa, hm.Size)
	st.WalkMemAccesses += uint64(g + (g+1)*h)
	return eff, true
}

// TranslateRuns translates a slice of page runs in stream order: one probe
// or walk per run, counters weighted by Run.Len. It returns how many runs it
// completed; a short return means runs[done]'s leading reference faulted
// (Faults has been charged, exactly as Translate would). The caller
// services the fault and re-enters with runs[done:], which re-probes from
// scratch — the fault handler may have remapped pages and shot down
// entries, so nothing precomputed survives it. A skipped reference is
// expressed by decrementing runs[done].Len (the remainder of the run
// re-coalesces in place, same page), dropping the run once Len reaches
// zero.
//
// The pipeline alternates two régimes: tlb.SweepL1Runs consumes maximal
// prefixes of L1-hitting runs in a tight loop over the flat tag arrays,
// then the first run whose leading reference misses every L1 is resolved
// through the L2 probe, page walk or fault path before the sweep resumes.
// Splitting at exactly that boundary keeps the order of TLB state changes
// that of scalar translation: L1 hits never change TLB membership, while L2
// hits and walks insert/evict entries that later probes must observe.
//
// hpt selects the mode: nil translates natively against gpt; non-nil runs
// the nested gVA→hPA path.
//
// Byte-identity with the expanded per-reference loop rests on two facts
// (DESIGN.md §5c): (1) only a run's leading reference can fault — the
// leading reference's walk or fault handler maps the page, and the page
// cannot become unmapped mid-run because nothing between the references of
// one run unmaps anything; (2) after the leading reference resolves at size
// s, its page's tag is MRU in the L1 of size s (an L1 hit promotes it, an
// L2 hit or walk installs it at MRU), so each remaining reference is an MRU
// fast-path L1 hit whose only effect is a counter increment — bulk-applied
// here via tlb.BulkL1Hits and a weighted BySize add.
func (m *MMU) TranslateRuns(gpt, hpt *pagetable.Table, runs []stream.Run) int {
	if cap(m.sweepSizes) < len(runs) {
		m.sweepSizes = make([]uint8, len(runs))
	}
	sizes := m.sweepSizes[:len(runs)]
	done := 0
	for done < len(runs) {
		n := m.TLB.SweepL1Runs(runs[done:], sizes[done:])
		if n > 0 {
			if m.ShadowCheck {
				// One check per run: every reference of a run shares the
				// page, and the check is a pure read of the page tables, so
				// checking the leading reference covers the run.
				for k := done; k < done+n; k++ {
					s := units.PageSize(sizes[k])
					if hpt != nil {
						m.shadowCheckNested(gpt, hpt, runs[k].VA, s)
					} else {
						m.shadowCheckNative(gpt, runs[k].VA, s)
					}
				}
			}
			for k := done; k < done+n; k++ {
				m.BySize[sizes[k]].Accesses += uint64(runs[k].Len)
			}
			done += n
			if done == len(runs) {
				break
			}
		}
		// runs[done]'s leading reference missed every L1: resolve it through
		// the scalar L2/walk path, then bulk-charge the run's remaining
		// references as the guaranteed MRU L1 hits they are.
		rn := runs[done]
		var size units.PageSize
		var ok bool
		if hpt != nil {
			size, ok = m.resolveNestedL1Missed(gpt, hpt, rn.VA, rn.Write)
		} else {
			size, ok = m.resolveL1Missed(gpt, rn.VA, rn.Write)
		}
		if !ok {
			return done
		}
		if rest := uint64(rn.Len) - 1; rest > 0 {
			m.TLB.BulkL1Hits(size, rest)
			m.BySize[size].Accesses += rest
		}
		done++
	}
	return done
}

// Totals sums the per-size stats.
func (m *MMU) Totals() perfmodel.TranslationStats {
	var s perfmodel.TranslationStats
	for i := range m.BySize {
		s.Add(m.BySize[i])
	}
	return s
}

// FlushPage invalidates one page's cached translations (TLB shootdown of a
// remapped page). The paging-structure caches are left alone: their entries
// point at intermediate tables, which remain valid.
func (m *MMU) FlushPage(va uint64, size units.PageSize) {
	m.TLB.InvalidatePage(va, size)
}

// FlushAll empties all translation caches.
func (m *MMU) FlushAll() {
	m.TLB.FlushAll()
	m.PWC.Flush()
	if m.HostPWC != nil {
		m.HostPWC.Flush()
	}
}

// ResetStats zeroes counters while keeping cache contents warm (used
// between warmup and measurement phases).
func (m *MMU) ResetStats() {
	for i := range m.BySize {
		m.BySize[i] = perfmodel.TranslationStats{}
	}
	m.Faults = 0
	m.TLB.ResetStats()
}
