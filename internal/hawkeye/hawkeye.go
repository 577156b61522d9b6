// Package hawkeye implements the HawkEye baseline (Panwar et al.,
// ASPLOS '19 [42]) that the paper compares against in Figures 9, 10 and 12,
// plus the bloat-recovery technique §7 borrows from it.
//
// HawkEye's fault path is THP-like (2MB when possible), so package fault's
// THP policy serves faults. What this package adds is HawkEye's promotion
// machinery:
//
//   - kbinmanager: periodically clears PTE access bits over candidate 2MB
//     regions and samples which got re-set, estimating per-region TLB
//     pressure ("access coverage"). This costs CPU — the overhead the paper
//     blames for HawkEye occasionally losing to THP under fragmentation.
//   - Fine-grained promotion: candidate regions are promoted in descending
//     access-coverage order, hottest first, instead of sequential scanning.
//   - Bloat recovery: under memory pressure, huge pages that were collapsed
//     around mostly-unpopulated ranges are demoted and their never-touched
//     (zero-filled) sub-pages deduplicated/freed.
package hawkeye

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/compact"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/promote"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Modeled kbinmanager costs.
const (
	// sampleNsPerSpan is the cost of clearing and later reading the access
	// bits of one 2MB span's PTEs.
	sampleNsPerSpan = 3_000
)

// Stats accumulates HawkEye daemon activity.
type Stats struct {
	Promoted2M     uint64
	Attempts2M     uint64
	Failed2M       uint64
	BytesCopied    uint64
	SpansSampled   uint64
	Demotions      uint64
	BloatRecovered uint64 // bytes of zero sub-pages freed
	BloatBytes     uint64 // bloat introduced by promotions
	// Nanoseconds is daemon CPU time (sampling + promotion work; compaction
	// time is in Normal.Stats).
	Nanoseconds float64
}

// Daemon is HawkEye's kbinmanager + promotion thread pair.
type Daemon struct {
	K      *kernel.Kernel
	Normal *compact.Normal
	// CoverageThreshold is the minimum fraction of a 2MB span's base pages
	// that must be recently accessed for the span to be promoted. HawkEye's
	// access-coverage bins promote hot regions first and skip cold ones.
	CoverageThreshold float64
	S                 Stats

	// Cands is Sample's candidate buffer, reused by every pass. A new
	// Daemon may be handed a parked one: the machine pool (internal/sim)
	// keeps it between runs, so a run's scans regrow nothing.
	Cands []Candidate

	// bloat remembers populated bytes at promotion time per huge page, for
	// recovery decisions.
	bloat map[bloatKey]uint64
}

type bloatKey struct {
	space uint32
	va    uint64
}

// New creates a HawkEye daemon over k.
func New(k *kernel.Kernel) *Daemon {
	return &Daemon{
		K:                 k,
		Normal:            compact.NewNormal(k),
		CoverageThreshold: 1.0 / 512, // at least one recently-accessed base page
		bloat:             make(map[bloatKey]uint64),
	}
}

// Candidate is a promotable 2MB span with its sampled access coverage.
type Candidate struct {
	va       uint64
	coverage float64
}

// Sample runs one kbinmanager pass over t: for every 2MB-mappable span
// currently mapped with 4KB pages, read how many PTE access bits the
// hardware set since the last pass, then clear them. It returns the
// candidates sorted hottest-first, in d.Cands: valid until the next pass.
func (d *Daemon) Sample(t *kernel.Task) []Candidate {
	cands := d.Cands[:0]
	t.AS.ForEachAligned(units.Size2M, func(va uint64, _ vmm.Kind) bool {
		// Skip spans already huge-mapped or unpopulated.
		if m, ok := t.AS.PT.Lookup(va); ok && m.Size != units.Size4K {
			return true
		}
		accessed := t.AS.PT.ClearAccessed(va, va+units.Page2M)
		d.S.SpansSampled++
		d.S.Nanoseconds += sampleNsPerSpan
		if accessed == 0 {
			return true
		}
		cands = append(cands, Candidate{va: va, coverage: float64(accessed) / 512})
		return true
	})
	// The order is total (no two candidates share a va), so any sort gives
	// the same slice; slices.SortFunc sorts without allocating.
	slices.SortFunc(cands, func(a, b Candidate) int {
		if a.coverage != b.coverage {
			return cmp.Compare(b.coverage, a.coverage)
		}
		return cmp.Compare(a.va, b.va)
	})
	d.Cands = cands
	return cands
}

// ScanTask runs one sample-and-promote pass, promoting the hottest spans
// first, within budgetNs of modeled daemon time (<= 0 means unlimited).
// It returns the nanoseconds spent; a non-nil error means a collapse failed
// midway through its remap.
func (d *Daemon) ScanTask(t *kernel.Task, budgetNs float64) (float64, error) {
	startNs := d.totalNs()
	spent := func() float64 { return d.totalNs() - startNs }
	for _, c := range d.Sample(t) {
		if c.coverage < d.CoverageThreshold {
			break // sorted: everything after is colder
		}
		if err := d.promote2M(t, c.va); err != nil {
			return spent(), err
		}
		if budgetNs > 0 && spent() > budgetNs {
			break
		}
	}
	return spent(), nil
}

func (d *Daemon) promote2M(t *kernel.Task, va uint64) error {
	d.S.Attempts2M++
	pfn, err := d.K.Buddy.Alloc(units.Order2M, false)
	if err != nil {
		if !d.Normal.Compact(units.Order2M) {
			d.S.Failed2M++
			return nil
		}
		pfn, err = d.K.Buddy.Alloc(units.Order2M, false)
		if err != nil {
			d.S.Failed2M++
			return nil
		}
	}
	populated, ns, err := promote.Collapse(d.K, t, va, units.Size2M, pfn, false)
	if err != nil {
		return err
	}
	d.S.Promoted2M++
	d.S.BytesCopied += populated
	d.S.BloatBytes += units.Page2M - populated
	d.S.Nanoseconds += ns
	if populated < units.Page2M {
		d.bloat[bloatKey{t.AS.ID, va}] = populated
	}
	return nil
}

// TrackPromotion lets another promotion engine (e.g. Trident's khugepaged)
// register bloat for later recovery, wiring it to promote.Daemon.OnPromote.
func (d *Daemon) TrackPromotion(t *kernel.Task, va uint64, size units.PageSize, populated uint64) {
	if populated < size.Bytes() {
		d.bloat[bloatKey{t.AS.ID, va}] = populated
	}
}

// RecoverBloat demotes bloated huge pages and frees their never-populated
// sub-pages until at least wantBytes have been recovered or no candidates
// remain (HawkEye triggers this under memory pressure). Pages with the most
// recoverable bloat are demoted first. It returns the bytes recovered.
func (d *Daemon) RecoverBloat(wantBytes uint64) uint64 {
	type cand struct {
		key         bloatKey
		recoverable uint64
	}
	var cands []cand
	for key, populated := range d.bloat {
		t, ok := d.K.TaskByID(key.space)
		if !ok {
			delete(d.bloat, key)
			continue
		}
		m, ok := t.AS.PT.Lookup(key.va)
		if !ok || m.VA != key.va || m.Size == units.Size4K {
			delete(d.bloat, key) // mapping changed since promotion
			continue
		}
		cands = append(cands, cand{key, m.Size.Bytes() - populated})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].recoverable != cands[j].recoverable {
			return cands[i].recoverable > cands[j].recoverable
		}
		if cands[i].key.space != cands[j].key.space {
			return cands[i].key.space < cands[j].key.space
		}
		return cands[i].key.va < cands[j].key.va
	})
	var recovered uint64
	for _, c := range cands {
		if recovered >= wantBytes {
			break
		}
		t, _ := d.K.TaskByID(c.key.space)
		recovered += d.demoteAndFree(t, c.key.va, d.bloat[c.key])
		delete(d.bloat, c.key)
	}
	d.S.BloatRecovered += recovered
	return recovered
}

// demoteAndFree splits the huge page at va and frees its never-populated
// tail sub-pages (the zero-filled ones), returning bytes freed.
func (d *Daemon) demoteAndFree(t *kernel.Task, va uint64, populated uint64) uint64 {
	m, ok := t.AS.PT.Lookup(va)
	if !ok || m.VA != va {
		return 0
	}
	sub := units.Size2M
	if m.Size == units.Size2M {
		sub = units.Size4K
	}
	if err := d.K.DemotePage(t, va); err != nil {
		return 0
	}
	d.S.Demotions++
	d.S.Nanoseconds += 512 * perfmodel.PTEUpdateNs
	keep := (populated + sub.Bytes() - 1) / sub.Bytes()
	var freed uint64
	for i := keep; i < 512; i++ {
		subVA := va + i*sub.Bytes()
		if err := d.K.UnmapFree(t, subVA, sub); err == nil {
			freed += sub.Bytes()
			d.S.Nanoseconds += perfmodel.PTEUpdateNs
		}
	}
	return freed
}

func (d *Daemon) totalNs() float64 { return d.S.Nanoseconds + d.Normal.Nanoseconds }

// TotalNs exposes combined daemon + compaction time.
func (d *Daemon) TotalNs() float64 { return d.totalNs() }
