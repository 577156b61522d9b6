// Package mmu is the translation front-end of a simulated core: every
// memory reference goes through the TLB hierarchy; misses trigger a page
// walk whose memory-access count is shortened by the paging-structure
// caches. Native and virtualized runs share one path: Translate and
// TranslateRuns take the guest table and an optional host table, and a nil
// host table means native.
//
// The walk arithmetic follows §2 of the paper: with g guest-walk accesses
// and h host-walk accesses per guest-structure access, a nested walk costs
// g + (g+1)·h memory accesses — 24 for 4KB+4KB, 15 for 2MB+2MB, 8 for
// 1GB+1GB before paging-structure caches. A native walk is the same walk
// with no host dimension (h = 0).
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
	// HostPWC shortens the host dimension of nested walks; native runs
	// never consult it.
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

	// SweepSizes is TranslateRuns' reusable per-run page-size scratch,
	// grown to the longest run slice seen; Reset keeps it.
	SweepSizes []uint8

	// cfg is the geometry TLB, PWC and HostPWC were built with.
	cfg tlb.Config
}

// New creates an MMU with the given translation-cache config. It serves
// native and virtualized runs alike: the host table passed to Translate
// and TranslateRuns selects the mode.
func New(cfg tlb.Config) *MMU {
	return &MMU{TLB: tlb.NewHierarchy(cfg), PWC: tlb.NewPWC(cfg), HostPWC: tlb.NewPWC(cfg), cfg: cfg}
}

// Reset returns m to the state New(cfg) builds, so the machine pool
// (internal/sim) can hand one MMU to run after run: empty TLBs and
// paging-structure caches, zero statistics and the shadow check off.
// Only SweepSizes, pure scratch, and the TLB hierarchy's probe hints, pure
// performance state, carry over. At m's own geometry the caches are
// flushed in place; at another one Reset allocates new ones, as New does.
func (m *MMU) Reset(cfg tlb.Config) {
	if cfg != m.cfg {
		*m = MMU{TLB: tlb.NewHierarchy(cfg), PWC: tlb.NewPWC(cfg), HostPWC: tlb.NewPWC(cfg), SweepSizes: m.SweepSizes, cfg: cfg}
		return
	}
	m.TLB.FlushAll()
	m.PWC.Flush()
	m.HostPWC.Flush()
	*m = MMU{TLB: m.TLB, PWC: m.PWC, HostPWC: m.HostPWC, SweepSizes: m.SweepSizes, cfg: cfg}
}

// Translate performs one reference. With a nil hpt it translates va
// natively through gpt. With a host table it runs in a VM: gVA→gPA through
// the guest table gpt, gPA→hPA through hpt, and the TLB caches the combined
// translation at the smaller of the two page sizes. It returns false if va
// is unmapped (a page fault the caller must service before retrying); a
// missing host mapping panics, because the hypervisor in this simulator
// always backs guest memory.
//
// The common case — the overwhelming majority of references in any sampled
// stream — hits the TLB, and hardware never walks the page table on a TLB
// hit. The software model mirrors that asymmetry: a VA-only TLB probe runs
// first, and the page tables are consulted only on a probe miss (or fault).
// This is sound because every remap shoots its pages down (kernel.Shootdown →
// FlushRange), so between flushes TLB entries are authoritative; it is
// bit-identical because the probed tag carries the (effective) page size,
// which is all the hit path ever used from the mappings.
func (m *MMU) Translate(gpt, hpt *pagetable.Table, va uint64, write bool) bool {
	if lvl, size, ok := m.TLB.Probe(va); ok {
		return m.hit(gpt, hpt, va, size, lvl)
	}
	_, ok := m.miss(gpt, hpt, va, write)
	return ok
}

// resolveL1Missed is Translate for a reference already proven (by
// tlb.SweepL1Runs) to miss every L1: the probe starts at the L2 stage. The
// skipped L1 probes are stateless misses, so the outcome and every state
// transition match Translate exactly. It reports the (effective) page size
// the reference resolved at. The run-coalesced pipeline needs the size to
// bulk-charge the rest of the run: resolving the leading reference leaves
// its page's tag MRU in the L1 of that size (ProbeL2's insertMissed and the
// walk's AccessMissedAll both install at MRU), so every remaining
// same-page reference is a guaranteed L1 hit at exactly that size.
func (m *MMU) resolveL1Missed(gpt, hpt *pagetable.Table, va uint64, write bool) (units.PageSize, bool) {
	if size, ok := m.TLB.ProbeL2(va); ok {
		return size, m.hit(gpt, hpt, va, size, tlb.HitL2)
	}
	return m.miss(gpt, hpt, va, write)
}

// hit finishes a translation satisfied by the TLB probe. Entries are tagged
// at the effective page size, so a hit recovers it without touching either
// dimension's table.
func (m *MMU) hit(gpt, hpt *pagetable.Table, va uint64, size units.PageSize, lvl tlb.Level) bool {
	if m.ShadowCheck {
		m.shadowCheck(gpt, hpt, va, size)
	}
	st := &m.BySize[size]
	st.Accesses++
	if lvl == tlb.HitL2 {
		st.L2Hits++
	}
	return true
}

// miss resolves a reference that missed the whole TLB probe: the walk
// (two-dimensional under a host table), walk accounting and entry
// installation — or a guest fault. It reports the effective page size so
// run-coalesced callers can bulk-charge the rest of the reference's run at
// it. The walk costs g + (g+1)·h memory accesses (§2), with h = 0 natively.
func (m *MMU) miss(gpt, hpt *pagetable.Table, va uint64, write bool) (units.PageSize, bool) {
	// Each dimension's walk resolves its mapping AND sets its accessed (and
	// dirty) bits in one descent, exactly as the hardware walker does — a
	// separate Lookup would descend to the same leaf twice.
	_, gm, ok := gpt.Translate(va, write)
	if !ok {
		m.Faults++
		return 0, false
	}
	size := gm.Size
	g := m.PWC.WalkAccesses(va, gm.Size)
	h := 0
	if hpt != nil {
		gpa := units.FrameAddr(gm.PFN) + (va - gm.VA)
		_, hm, ok := hpt.Translate(gpa, write)
		if !ok {
			panic("mmu: guest physical address not backed by host mapping")
		}
		size = min(size, hm.Size)
		h = m.HostPWC.WalkAccesses(gpa, hm.Size)
	}
	st := &m.BySize[size]
	st.Accesses++
	// The probe that routed us here covered every structure at every size,
	// so this install cannot hit anything.
	m.TLB.AccessMissedAll(va, size)
	st.Walks++
	st.WalkMemAccesses += uint64(g + (g+1)*h)
	return size, true
}

// shadowCheck verifies a fast-path hit at the given size against the guest
// table and, when hpt is non-nil, the host table.
func (m *MMU) shadowCheck(gpt, hpt *pagetable.Table, va uint64, size units.PageSize) {
	gm, ok := gpt.Lookup(va)
	if !ok {
		panic(fmt.Sprintf("mmu: shadow coherence: TLB hit at %#x (%v) but page is unmapped — stale entry survived a remap", va, size))
	}
	want := gm.Size
	if hpt != nil {
		gpa := units.FrameAddr(gm.PFN) + (va - gm.VA)
		hm, ok := hpt.Lookup(gpa)
		if !ok {
			panic(fmt.Sprintf("mmu: shadow coherence: gPA %#x of gVA %#x not backed by host mapping", gpa, va))
		}
		want = min(want, hm.Size)
	}
	if want != size {
		panic(fmt.Sprintf("mmu: shadow coherence: TLB hit at %#x probed size %v but page tables map %v", va, size, want))
	}
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
// hpt selects the mode, as in Translate: nil translates natively against
// gpt; non-nil runs the nested gVA→hPA path.
//
// Byte-identity with the expanded per-reference loop rests on two facts
// (DESIGN.md §5c): (1) only a run's leading reference can fault — the
// leading reference's walk or fault handler maps the page, and the page
// cannot become unmapped mid-run because nothing between the references of
// one run unmaps anything; (2) after the leading reference resolves at size
// s, its page's tag is MRU in the L1 of size s (an L1 hit promotes it, an
// L2 hit or walk installs it at MRU), so each remaining reference is an MRU
// fast-path L1 hit that changes no TLB state — charged here as one weighted
// BySize add.
func (m *MMU) TranslateRuns(gpt, hpt *pagetable.Table, runs []stream.Run) int {
	if cap(m.SweepSizes) < len(runs) {
		m.SweepSizes = make([]uint8, len(runs))
	}
	sizes := m.SweepSizes[:len(runs)]
	done := 0
	for done < len(runs) {
		n := m.TLB.SweepL1Runs(runs[done:], sizes[done:])
		if n > 0 {
			if m.ShadowCheck {
				// One check per run: every reference of a run shares the
				// page, and the check is a pure read of the page tables, so
				// checking the leading reference covers the run.
				for k := done; k < done+n; k++ {
					m.shadowCheck(gpt, hpt, runs[k].VA, units.PageSize(sizes[k]))
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
		// the scalar L2/walk path, then charge the run's remaining
		// references as the guaranteed MRU L1 hits they are, which change
		// no TLB state.
		rn := runs[done]
		size, ok := m.resolveL1Missed(gpt, hpt, rn.VA, rn.Write)
		if !ok {
			return done
		}
		m.BySize[size].Accesses += uint64(rn.Len) - 1
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

// FlushRange invalidates the cached translations of the n pages of the
// given size at va, va+size, … (the TLB shootdown of a torn-down run):
// exactly FlushPage on each of them, with one pass over each TLB's lines
// once n reaches its set count (tlb.Hierarchy.InvalidateRange).
func (m *MMU) FlushRange(va, n uint64, size units.PageSize) {
	m.TLB.InvalidateRange(va, n, size)
}

// FlushAll empties all translation caches.
func (m *MMU) FlushAll() {
	m.TLB.FlushAll()
	m.PWC.Flush()
	m.HostPWC.Flush()
}

// ResetStats zeroes counters while keeping cache contents warm (used
// between warmup and measurement phases).
func (m *MMU) ResetStats() {
	for i := range m.BySize {
		m.BySize[i] = perfmodel.TranslationStats{}
	}
	m.Faults = 0
}
