// Package promote implements the khugepaged promotion daemon in both its
// stock-Linux form (collapse 4KB ranges into 2MB pages) and Trident's
// extension (Figure 5): scan each candidate process's address space; for
// every 1GB-mappable range not yet mapped with a 1GB page, obtain a 1GB
// chunk (asking smart compaction if the buddy has none) and remap; on
// failure fall back to promoting 2MB sub-ranges (with normal compaction),
// exactly the flowchart of Figure 5.
//
// Promotion is collapse-by-copy, as in Linux: a new huge page is allocated,
// populated contents are copied in, the old mappings are torn down, and the
// huge mapping is installed. Under Trident_pv the 2MB→1GB copies are
// replaced by gPA↔hPA mapping exchanges (§6), which this package models as
// an alternative per-page move cost (the guest-side bookkeeping is
// identical); package virt adds the host-side mechanics.
//
// Like Linux's khugepaged, the daemon is aggressive about sparsely
// populated ranges (one mapped base page suffices to collapse — Linux's
// max_ptes_none default), which is what produces the memory bloat the paper
// discusses in §7; HawkEye-style recovery (package hawkeye) demotes bloated
// pages back.
package promote

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/zerofill"
)

// Modeled scan costs (ns) for walking candidate ranges, on top of copy and
// compaction work.
const (
	scanNsPer2MSpan = 2_000
	scanNsPer1GSpan = 8_000
)

// MoveMode selects how populated data reaches the new huge page.
type MoveMode int

// Move modes.
const (
	// MoveCopy is Linux's collapse-by-copy.
	MoveCopy MoveMode = iota
	// MovePvBatched exchanges gPA↔hPA mappings, one hypercall per 512
	// pages (Trident_pv, §6). Applies only to 2MB→1GB promotion; 4KB
	// sources are still copied ("copy-less promotion is less useful for
	// promoting 4KB pages").
	MovePvBatched
	// MovePvUnbatched is the exchange path with one hypercall per page,
	// used to reproduce §6's before/after-batching comparison.
	MovePvUnbatched
)

// Stats accumulates promotion activity.
type Stats struct {
	// Promoted counts successful promotions by resulting page size.
	Promoted [units.NumPageSizes]uint64
	// Attempts1G/Failed1G: 1GB promotion attempts and those that failed for
	// lack of contiguous memory even after compaction (Table 4, promotion
	// column).
	Attempts1G uint64
	Failed1G   uint64
	Attempts2M uint64
	Failed2M   uint64
	// BytesCopied is data copied into new huge pages (excludes compaction's
	// own copying, which the compactors account separately).
	BytesCopied uint64
	// PagesExchanged counts 2MB pages moved by pv exchange instead of copy.
	PagesExchanged uint64
	// BloatBytes is memory newly occupied by promoted huge pages that was
	// never faulted by the application (internal fragmentation bloat, §7).
	BloatBytes uint64
	// Nanoseconds is modeled daemon CPU time (scanning, copying,
	// exchanging; compaction time is accounted by the compactors).
	Nanoseconds float64
	// MoveNanoseconds is the data-movement part alone (copy/exchange/zero
	// and PTE updates, no scanning) — the §6 promotion-latency quantity.
	MoveNanoseconds float64
}

// Daemon is the promotion thread.
type Daemon struct {
	K *kernel.Kernel
	// Zero supplies pre-zeroed 1GB regions for promotion targets (optional).
	Zero *zerofill.Daemon
	// Enable1G turns on Trident's 1GB promotion; false gives stock
	// khugepaged (2MB only).
	Enable1G bool
	// Smart is Trident's compactor for 1GB chunks. If nil while Enable1G is
	// set, 1GB chunks are requested from Normal instead (the Trident-NC
	// ablation of Figure 11).
	Smart *compact.Smart
	// Normal is Linux's compactor, used for 2MB chunks.
	Normal *compact.Normal
	// Normal1G, if set (the Trident-NC ablation), serves 1GB chunk requests
	// with sequential compaction instead of Smart. Keeping it separate from
	// Normal lets the harness compare 1GB-creation copying costs directly
	// (Figure 7).
	Normal1G *compact.Normal
	// Move selects copy vs pv-exchange for 2MB→1GB data movement.
	Move MoveMode
	// Disable2M turns off 2MB promotion (the Trident-1Gonly ablation of
	// Figure 11 bars 1GB pages from falling back to 2MB anywhere).
	Disable2M bool
	// OnPromote, if set, is called after each successful promotion with the
	// bytes that were populated before the collapse (hawkeye's bloat
	// tracker subscribes to this).
	OnPromote func(t *kernel.Task, va uint64, size units.PageSize, populated uint64)
	// OnExchange, if set, is called for every 2MB page moved by pv exchange
	// with the source and destination guest-physical addresses; the
	// virtualization layer applies the corresponding hPA mapping swap.
	OnExchange func(srcGPA, dstGPA uint64)
	// Abort, if set, is consulted after an attempt is counted but before
	// any state changes; returning true records the attempt as failed and
	// moves on (the chaos injector's promotion-abort knob).
	Abort func() bool

	S Stats

	// resume holds the per-task scan cursor so a budgeted scan continues
	// where it left off.
	resume map[*kernel.Task]uint64
	// defer1G suppresses further 1GB attempts for the rest of a scan after
	// one fails (Linux's deferred-compaction behaviour: don't hammer an
	// allocation that just proved expensive and hopeless).
	defer1G bool
}

// New creates a promotion daemon. zero may be nil (no pre-zeroed targets).
func New(k *kernel.Kernel, zero *zerofill.Daemon) *Daemon {
	return &Daemon{
		K:      k,
		Zero:   zero,
		Normal: compact.NewNormal(k),
		resume: make(map[*kernel.Task]uint64),
	}
}

// NewTrident creates the full Trident configuration: 1GB promotion with
// smart compaction plus 2MB fallback.
func NewTrident(k *kernel.Kernel, zero *zerofill.Daemon) *Daemon {
	d := New(k, zero)
	d.Enable1G = true
	d.Smart = compact.NewSmart(k)
	return d
}

// ScanTask performs one budgeted promotion pass over t's address space,
// following Figure 5: per region, prefer 1GB promotion, fall back to 2MB.
// budgetNs <= 0 means unlimited. A full pass visits every 2MB-aligned span
// once, starting from the per-task resume cursor (so a budget-limited scan
// continues where the previous one stopped). It returns the modeled
// nanoseconds spent, including compaction triggered by this scan. A non-nil
// error means a collapse failed midway through its remap — a kernel-model
// inconsistency that the caller should surface, not ignore.
//
// The pass walks the VMAs twice, from the cursor to the end and then from
// the start up to the cursor, instead of listing the spans first: nothing
// a span's promotion does (remaps, compaction, pv exchanges, which remap
// the host's task) edits t's VMAs, so both walks see the span list a
// listing would have held.
func (d *Daemon) ScanTask(t *kernel.Task, budgetNs float64) (float64, error) {
	startNs := d.totalNs()
	spent := func() float64 { return d.totalNs() - startNs }

	d.defer1G = false
	cursor := d.resume[t]
	var err error
	stopped := false
	visit := func(va uint64, _ vmm.Kind) bool {
		err = d.processSpan(t, va)
		d.resume[t] = va + units.Page2M
		stopped = err != nil || budgetNs > 0 && spent() > budgetNs
		return !stopped
	}
	t.AS.ForEachAligned(units.Size2M, func(va uint64, kind vmm.Kind) bool {
		return va < cursor || visit(va, kind)
	})
	if !stopped {
		t.AS.ForEachAligned(units.Size2M, func(va uint64, kind vmm.Kind) bool {
			return va < cursor && visit(va, kind)
		})
	}
	return spent(), err
}

// processSpan applies Figure 5's per-region logic to the 2MB span at va.
func (d *Daemon) processSpan(t *kernel.Task, va uint64) error {
	d.S.Nanoseconds += scanNsPer2MSpan
	// If a 1GB mapping covers this span, nothing to do.
	if m, ok := t.AS.PT.Lookup(va); ok && m.Size == units.Size1G {
		return nil
	}
	// Try 1GB promotion when this span opens a 1GB-mappable region.
	if d.Enable1G && !d.defer1G && units.IsAligned(va, units.Page1G) {
		if head, ok := t.AS.AlignedRangeAt(va, units.Size1G); ok && head == va {
			promoted, err := d.try1G(t, head)
			if err != nil {
				return err
			}
			if promoted {
				return nil
			}
		}
	}
	// 2MB promotion of this span if it is mapped with 4KB pages.
	if !d.Disable2M {
		if _, err := d.try2M(t, va); err != nil {
			return err
		}
	}
	return nil
}

// rangeProbe reports whether [va, va+size.Bytes()) holds any mapping at all,
// and whether a mapping of `size` or larger already covers it. Only the first
// mapping in the range is examined, which is exact: va is size-aligned, so a
// mapping of `size` or larger intersecting the range must start at or before
// va and cover all of it — it is necessarily the first mapping enumerated,
// and any smaller first mapping proves no covering huge mapping exists.
func rangeProbe(t *kernel.Task, va uint64, size units.PageSize) (populated, alreadyHuge bool) {
	t.AS.PT.ForEach(va, va+size.Bytes(), func(m pagetable.Mapping) bool {
		populated = true
		alreadyHuge = m.Size >= size
		return false
	})
	return populated, alreadyHuge
}

func (d *Daemon) try1G(t *kernel.Task, va uint64) (bool, error) {
	d.S.Nanoseconds += scanNsPer1GSpan - scanNsPer2MSpan
	populated, alreadyHuge := rangeProbe(t, va, units.Size1G)
	if alreadyHuge || !populated {
		// Nothing faulted yet: leave it to the fault handler (the paper's
		// criticism of the promotion-only 1GB patch set [59] is precisely
		// that it moves data even when the fault path could have mapped
		// 1GB directly).
		return false, nil
	}
	d.S.Attempts1G++
	if d.Abort != nil && d.Abort() {
		d.S.Failed1G++
		d.defer1G = true
		return false, nil
	}
	pfn, zeroed, ok := d.alloc1G()
	if !ok {
		d.S.Failed1G++
		d.defer1G = true
		return false, nil
	}
	// Move populated contents into the new chunk. This enumeration also
	// recovers the exact populated byte count rangeProbe no longer sums:
	// nothing between the probe and here can change the range's mappings.
	var moveNs float64
	var popBytes, copied uint64
	var exchanged int
	t.AS.PT.ForEach(va, va+units.Page1G, func(m pagetable.Mapping) bool {
		popBytes += m.Size.Bytes()
		if m.Size == units.Size2M && d.Move != MoveCopy {
			exchanged++
			if d.OnExchange != nil {
				srcGPA := units.FrameAddr(m.PFN)
				dstGPA := units.FrameAddr(pfn) + (m.VA - va)
				d.OnExchange(srcGPA, dstGPA)
			}
		} else {
			copied += m.Size.Bytes()
		}
		return true
	})
	switch d.Move {
	case MovePvBatched:
		// One hypercall carries up to 512 exchange requests (§6).
		if exchanged > 0 {
			batches := (exchanged + 511) / 512
			moveNs += float64(batches)*perfmodel.HypercallNs + float64(exchanged)*perfmodel.ExchangeBatchedNs
		}
	case MovePvUnbatched:
		moveNs += float64(exchanged) * (perfmodel.ExchangeUnbatchedNs + perfmodel.HypercallNs)
	}
	moveNs += perfmodel.CopyNs(copied)
	if !zeroed {
		// Holes in the new 1GB page must be zeroed.
		moveNs += perfmodel.ZeroNs(units.Page1G - popBytes)
	}
	tearDown(d.K, t, va, units.Size1G, &moveNs)
	if err := d.K.MapSpecific(t, va, pfn, units.Size1G); err != nil {
		return false, fmt.Errorf("promote: mapping collapsed 1GB page at %#x: %w", va, err)
	}
	d.S.Promoted[units.Size1G]++
	d.S.BytesCopied += copied
	d.S.PagesExchanged += uint64(exchanged)
	d.S.BloatBytes += units.Page1G - popBytes
	d.S.Nanoseconds += moveNs
	d.S.MoveNanoseconds += moveNs
	if d.OnPromote != nil {
		d.OnPromote(t, va, units.Size1G, popBytes)
	}
	return true, nil
}

// alloc1G obtains a 1GB chunk: pre-zeroed pool, then buddy, then compaction
// (smart if configured, else normal) and one retry.
func (d *Daemon) alloc1G() (pfn uint64, zeroed, ok bool) {
	if d.Zero != nil {
		if pfn, ok := d.Zero.TakeZeroed(); ok {
			return pfn, true, true
		}
	}
	if pfn, err := d.K.Buddy.Alloc(units.Order1G, false); err == nil {
		return pfn, false, true
	}
	compacted := false
	switch {
	case d.Smart != nil:
		compacted = d.Smart.Compact()
	case d.Normal1G != nil:
		compacted = d.Normal1G.Compact(units.Order1G)
	default:
		compacted = d.Normal.Compact(units.Order1G)
	}
	if !compacted {
		return 0, false, false
	}
	pfn, err := d.K.Buddy.Alloc(units.Order1G, false)
	if err != nil {
		return 0, false, false
	}
	return pfn, false, true
}

func (d *Daemon) try2M(t *kernel.Task, va uint64) (bool, error) {
	populated, alreadyHuge := rangeProbe(t, va, units.Size2M)
	if alreadyHuge || !populated {
		return false, nil
	}
	d.S.Attempts2M++
	if d.Abort != nil && d.Abort() {
		d.S.Failed2M++
		return false, nil
	}
	pfn, err := d.K.Buddy.Alloc(units.Order2M, false)
	if err != nil {
		if !d.Normal.Compact(units.Order2M) {
			d.S.Failed2M++
			return false, nil
		}
		pfn, err = d.K.Buddy.Alloc(units.Order2M, false)
		if err != nil {
			d.S.Failed2M++
			return false, nil
		}
	}
	gotPopulated, moveNs, err := Collapse(d.K, t, va, units.Size2M, pfn, false)
	if err != nil {
		return false, err
	}
	d.S.Promoted[units.Size2M]++
	d.S.BytesCopied += gotPopulated
	d.S.BloatBytes += units.Page2M - gotPopulated
	d.S.Nanoseconds += moveNs
	d.S.MoveNanoseconds += moveNs
	if d.OnPromote != nil {
		d.OnPromote(t, va, units.Size2M, gotPopulated)
	}
	return true, nil
}

// Collapse remaps [va, va+size.Bytes()) onto the pre-allocated huge chunk
// headed at pfn: populated contents are copied in, holes are zeroed (unless
// the chunk came pre-zeroed), the old mappings are torn down and their
// frames freed, and the huge mapping is installed. It returns the populated
// bytes and the modeled nanoseconds of the collapse. Shared by khugepaged
// (this package) and HawkEye's coverage-ordered promotion. A non-nil error
// means the remap failed midway — the caller should stop the scan and
// surface it rather than continue on an inconsistent address space.
func Collapse(k *kernel.Kernel, t *kernel.Task, va uint64, size units.PageSize, pfn uint64, zeroed bool) (uint64, float64, error) {
	// populated is summed up front because the copy/zero cost must enter
	// moveNs before the per-page PTE-update terms: float addition is not
	// associative, so folding this sum into the teardown pass below would
	// perturb the modeled nanoseconds.
	var populated uint64
	t.AS.PT.ForEach(va, va+size.Bytes(), func(m pagetable.Mapping) bool {
		populated += m.Size.Bytes()
		return true
	})
	moveNs := perfmodel.CopyNs(populated)
	if !zeroed {
		moveNs += perfmodel.ZeroNs(size.Bytes() - populated)
	}
	tearDown(k, t, va, size, &moveNs)
	if err := k.MapSpecific(t, va, pfn, size); err != nil {
		return 0, moveNs, fmt.Errorf("promote: mapping collapsed %v page at %#x: %w", size, va, err)
	}
	return populated, moveNs, nil
}

// tearDown unmaps the old mappings of the size-aligned range at va, run
// by run, and frees their frames in one batch, charging one PTE update per
// page to *moveNs in page order (float addition is not associative, so the
// per-page adds must keep their order). Teardown and freeing are
// separable: unmapping touches the page table, owner records and TLBs,
// never the buddy allocator, so the frees can lag the unmap pass
// (buddy.FreeBatch).
func tearDown(k *kernel.Kernel, t *kernel.Task, va uint64, size units.PageSize, moveNs *float64) {
	frees := k.Buddy.Batch()
	k.UnmapRangeKeep(t, va, va+size.Bytes(), func(r pagetable.Run) {
		for _, pfn := range r.PFNs {
			frees.Add(pfn, r.Size.Frames())
			*moveNs += perfmodel.PTEUpdateNs
		}
	})
	frees.Flush()
}

// totalNs is the daemon's own time plus its compactors' time, used for
// budget accounting (Figure 13 caps khugepaged at 10% of a vCPU).
func (d *Daemon) totalNs() float64 {
	ns := d.S.Nanoseconds
	if d.Normal != nil {
		ns += d.Normal.Nanoseconds
	}
	if d.Normal1G != nil {
		ns += d.Normal1G.Nanoseconds
	}
	if d.Smart != nil {
		ns += d.Smart.Nanoseconds
	}
	return ns
}

// TotalNs exposes the combined daemon + compaction time.
func (d *Daemon) TotalNs() float64 { return d.totalNs() }
