// Package fault implements the page-fault-time allocation policies the
// paper compares:
//
//   - Base4K: stock behaviour with THP disabled — every fault maps one 4KB
//     page.
//   - THP: Linux's Transparent Huge Pages — map 2MB when the faulting
//     address lies in a 2MB-mappable range and a free 2MB chunk exists,
//     else 4KB. (HawkEye's fault path is the same; its differences are in
//     promotion and bloat recovery, package hawkeye.)
//   - Hugetlbfs: static pre-reservation — a boot-time pool of 2MB or 1GB
//     pages maps eligible heap segments; stacks cannot use it, and when the
//     pool is exhausted faults fall back to 4KB (§2, §4.1).
//   - Trident: §5.1.2 — try 1GB (preferring an asynchronously pre-zeroed
//     region), fall back to 2MB, then 4KB. The ablation variant
//     Trident-1Gonly skips the 2MB step (Figure 11).
//
// Every policy reports the page size mapped and a modeled fault latency, and
// counts 1GB/2MB allocation attempts vs failures — the raw data of Table 4.
package fault

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/zerofill"
)

// rangeUnmapped reports whether [head, head+size) has no leaf mappings.
func rangeUnmapped(t *kernel.Task, head uint64, size units.PageSize) bool {
	return !t.AS.PT.Overlaps(head, size)
}

// Result describes how one fault was served.
type Result struct {
	// Size is the page size actually mapped.
	Size units.PageSize
	// VA is the head of the new mapping.
	VA uint64
	// LatencyNs is the modeled synchronous fault latency.
	LatencyNs float64
}

// Stats counts fault-handler activity for one policy instance.
type Stats struct {
	// Faults counts faults served, by mapped page size.
	Faults [units.NumPageSizes]uint64
	// Attempts1G / Failed1G count 1GB mapping attempts at fault time and
	// those that failed for lack of contiguous physical memory (Table 4).
	Attempts1G uint64
	Failed1G   uint64
	// Attempts2M / Failed2M are the same for 2MB.
	Attempts2M uint64
	Failed2M   uint64
	// Sync1GZero counts 1GB faults that had to zero synchronously because
	// no pre-zeroed region was available.
	Sync1GZero uint64
	// TotalLatencyNs accumulates modeled fault latency.
	TotalLatencyNs float64
}

// Traced wraps p so that every successfully served fault — population
// faults included — is reported to hook before the result is returned.
// The observability layer (internal/obs via internal/sim) uses it to emit
// per-fault trace events without the policies knowing about tracing.
// A nil hook returns p unchanged.
func Traced(p Policy, hook func(Result)) Policy {
	if hook == nil {
		return p
	}
	return &traced{p: p, hook: hook}
}

type traced struct {
	p    Policy
	hook func(Result)
}

func (t *traced) Name() string       { return t.p.Name() }
func (t *traced) FaultStats() *Stats { return t.p.FaultStats() }

func (t *traced) Handle(task *kernel.Task, va uint64) (Result, error) {
	r, err := t.p.Handle(task, va)
	if err == nil {
		t.hook(r)
	}
	return r, err
}

// around reports each page the wrapped policy's around mapped to the hook,
// in address order, as Handle would have one by one.
func (t *traced) around(task *kernel.Task, va, count uint64) (uint64, error) {
	a, ok := t.p.(arounder)
	if !ok {
		return 0, nil
	}
	n, err := a.around(task, va, count)
	lat := lat4K()
	for j := uint64(0); j < n; j++ {
		t.hook(Result{Size: units.Size4K, VA: va + j*units.Page4K, LatencyNs: lat})
	}
	return n, err
}

// Policy is a page-fault handler.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Handle serves a fault at va in t's address space. The address must lie
	// in a VMA and be unmapped.
	Handle(t *kernel.Task, va uint64) (Result, error)
	// FaultStats returns the accumulated counters.
	FaultStats() *Stats
}

// arounder is implemented by the policies whose Handle, at an unmapped
// page of a 2MB window that already holds a 4KB mapping, always reaches
// map4K (see Around). around(t, va, count) serves the faults at the count
// unmapped 4KB pages from va in such a window, in order, as that many
// Handle calls would, and returns how many it mapped and the error of the
// call that failed.
type arounder interface {
	around(t *kernel.Task, va, count uint64) (uint64, error)
}

// Around is population by fault-around. Given a fault r that mapped a 4KB
// page, it serves the faults at the unmapped pages that follow r in its
// 2MB window, up to end: the pages [r.VA+4KB, w), where w is the first of
// end, the window's end, the end of r's VMA and the next mapped page. It
// returns how many pages it mapped, the latency of each fault, and, when
// the fault at the page after the last one mapped failed, that fault's
// error. The caller accounts each mapped page as a fault of its own.
//
// Every policy in this package reaches map4K at those pages: r's mapping
// lies in every aligned 2MB or 1GB range that covers one of them, so
// try1G, try2M and Hugetlbfs's pool path, which all need such a range
// wholly unmapped, count no attempt and fall through, and map4K finds
// r's VMA. So the run maps them as map4K would one by one: frames from
// buddy.AllocRun, which hands them out in Alloc(0)'s order and consults
// FailAlloc per frame, mapped with kernel.MapRun, and map4K's stats
// added per page. For any other policy Around maps nothing, and the
// caller takes the next fault through Handle.
func Around(p Policy, t *kernel.Task, r Result, end uint64) (uint64, float64, error) {
	a, ok := p.(arounder)
	if !ok || r.Size != units.Size4K {
		return 0, 0, nil
	}
	va := r.VA + units.Page4K
	v, _ := t.AS.FindVMA(r.VA) // r's fault found it
	w := min(units.AlignUp(va, units.Page2M), units.AlignUp(end, units.Page4K), v.End)
	if va >= w {
		return 0, 0, nil
	}
	n, err := a.around(t, va, t.AS.PT.Unmapped4K(va, (w-va)/units.Page4K))
	return n, lat4K(), err
}

// mapRun4K is around for every policy of this package: map4K at count
// pages from va, whose VMA is known, with frames taken a run at a time.
func mapRun4K(k *kernel.Kernel, t *kernel.Task, s *Stats, va, count uint64) (uint64, error) {
	lat := lat4K()
	var done uint64
	for done < count {
		pfn, n, err := k.Buddy.AllocRun(count - done)
		mapped, mapErr := k.MapRun(t, va+done*units.Page4K, pfn, n)
		if mapErr != nil {
			// Around's window holds no mapping, so this is not reached;
			// if it were, the page's frame is freed as AllocMapped does.
			for f := pfn + mapped; f < pfn+n; f++ {
				k.Buddy.Free(f, 0)
			}
			err = mapErr
		}
		s.Faults[units.Size4K] += mapped
		t.Faults[units.Size4K] += mapped
		for j := uint64(0); j < mapped; j++ {
			s.TotalLatencyNs += lat
		}
		done += mapped
		if err != nil {
			return done, oom4K(va+done*units.Page4K, err)
		}
	}
	return done, nil
}

// lat4K is the modeled latency of a 4KB fault.
func lat4K() float64 { return perfmodel.FaultSetupNs(units.Size4K) + perfmodel.ZeroNs(units.Page4K) }

func oom4K(head uint64, err error) error {
	return fmt.Errorf("fault: OOM mapping 4KB at %#x: %w", head, err)
}

// ---------------------------------------------------------------------------

// Base4K maps every fault with a 4KB page.
type Base4K struct {
	K *kernel.Kernel
	S Stats
}

// NewBase4K returns the 4KB-only policy.
func NewBase4K(k *kernel.Kernel) *Base4K { return &Base4K{K: k} }

// Name implements Policy.
func (p *Base4K) Name() string { return "4KB" }

// FaultStats implements Policy.
func (p *Base4K) FaultStats() *Stats { return &p.S }

// Handle implements Policy.
func (p *Base4K) Handle(t *kernel.Task, va uint64) (Result, error) {
	return map4K(p.K, t, &p.S, va)
}

func (p *Base4K) around(t *kernel.Task, va, count uint64) (uint64, error) {
	return mapRun4K(p.K, t, &p.S, va, count)
}

func map4K(k *kernel.Kernel, t *kernel.Task, s *Stats, va uint64) (Result, error) {
	head := units.Align(va, units.Page4K)
	if _, ok := t.AS.FindVMA(va); !ok {
		return Result{}, fmt.Errorf("fault: segfault at %#x (no VMA)", va)
	}
	if _, err := k.AllocMapped(t, head, units.Size4K); err != nil {
		return Result{}, oom4K(head, err)
	}
	lat := lat4K()
	s.Faults[units.Size4K]++
	s.TotalLatencyNs += lat
	t.Faults[units.Size4K]++
	return Result{Size: units.Size4K, VA: head, LatencyNs: lat}, nil
}

// try2M attempts to serve the fault with a 2MB page; ok reports success.
func try2M(k *kernel.Kernel, t *kernel.Task, s *Stats, va uint64) (Result, bool) {
	head, ok := t.AS.AlignedRangeAt(va, units.Size2M)
	if !ok || !rangeUnmapped(t, head, units.Size2M) {
		return Result{}, false
	}
	s.Attempts2M++
	if _, err := k.AllocMapped(t, head, units.Size2M); err != nil {
		// No contiguous 2MB chunk (the range is known unmapped).
		s.Failed2M++
		return Result{}, false
	}
	lat := perfmodel.FaultSetupNs(units.Size2M) + perfmodel.ZeroNs(units.Page2M)
	s.Faults[units.Size2M]++
	s.TotalLatencyNs += lat
	t.Faults[units.Size2M]++
	return Result{Size: units.Size2M, VA: head, LatencyNs: lat}, true
}

// ---------------------------------------------------------------------------

// THP is Linux's Transparent Huge Pages fault path (2MB, fall back to 4KB).
type THP struct {
	K *kernel.Kernel
	S Stats
}

// NewTHP returns the THP policy.
func NewTHP(k *kernel.Kernel) *THP { return &THP{K: k} }

// Name implements Policy.
func (p *THP) Name() string { return "2MB-THP" }

// FaultStats implements Policy.
func (p *THP) FaultStats() *Stats { return &p.S }

// Handle implements Policy.
func (p *THP) Handle(t *kernel.Task, va uint64) (Result, error) {
	if r, ok := try2M(p.K, t, &p.S, va); ok {
		return r, nil
	}
	return map4K(p.K, t, &p.S, va)
}

func (p *THP) around(t *kernel.Task, va, count uint64) (uint64, error) {
	return mapRun4K(p.K, t, &p.S, va, count)
}

// ---------------------------------------------------------------------------

// Hugetlbfs is the static pre-reservation mechanism. A pool of pages of one
// large size is carved out at boot; eligible (non-stack) faults take from
// the pool, everything else gets 4KB.
type Hugetlbfs struct {
	K    *kernel.Kernel
	Size units.PageSize
	S    Stats
	pool []uint64 // head PFNs of reserved, unused pages
}

// NewHugetlbfs reserves pages huge pages of the given size from the buddy.
// Reservation happens up-front, exactly like booting with hugepages=N: it
// fails (returns the shortfall) if contiguous memory is unavailable.
func NewHugetlbfs(k *kernel.Kernel, size units.PageSize, pages int) (*Hugetlbfs, int) {
	h := &Hugetlbfs{K: k, Size: size}
	for i := 0; i < pages; i++ {
		pfn, err := k.Buddy.Alloc(size.Order(), false)
		if err != nil {
			return h, pages - i
		}
		h.pool = append(h.pool, pfn)
	}
	return h, 0
}

// Name implements Policy.
func (p *Hugetlbfs) Name() string { return p.Size.String() + "-Hugetlbfs" }

// FaultStats implements Policy.
func (p *Hugetlbfs) FaultStats() *Stats { return &p.S }

// PoolAvailable returns the number of reserved pages not yet handed out.
func (p *Hugetlbfs) PoolAvailable() int { return len(p.pool) }

// Handle implements Policy.
//
// Unlike THP, libHugetlbfs does not wait for the address range to be
// "huge-mappable": its overridden allocator rounds heap growth up to whole
// huge pages, so a fault anywhere in a non-stack area commits the full
// aligned huge page from the reserved pool — even if the application has
// only malloc'd a sliver of it. That is why the paper's Figure 1 shows
// 1GB-Hugetlbfs helping even incremental allocators like Btree, "at the
// cost of bloating memory footprint" (§7).
func (p *Hugetlbfs) Handle(t *kernel.Task, va uint64) (Result, error) {
	v, ok := t.AS.FindVMA(va)
	if !ok {
		return Result{}, fmt.Errorf("fault: segfault at %#x (no VMA)", va)
	}
	// libHugetlbfs cannot back stacks (§4.1: Redis's TLB-sensitive stack).
	if v.Kind != vmm.KindStack && len(p.pool) > 0 {
		head := units.Align(va, p.Size.Bytes())
		// The backing segment covers the whole aligned huge page even where
		// the application's own mmaps have not (yet) reached; later
		// allocator growth lands inside the already-mapped page.
		if head+p.Size.Bytes() <= vmm.MmapLimit && rangeUnmapped(t, head, p.Size) {
			pfn := p.pool[len(p.pool)-1]
			if err := p.K.MapSpecific(t, head, pfn, p.Size); err == nil {
				p.pool = p.pool[:len(p.pool)-1]
				// Hugetlbfs pages are zeroed at reservation/first use; the
				// fault itself pays setup plus zeroing of the page.
				lat := perfmodel.FaultSetupNs(p.Size) + perfmodel.ZeroNs(p.Size.Bytes())
				p.S.Faults[p.Size]++
				p.S.TotalLatencyNs += lat
				t.Faults[p.Size]++
				return Result{Size: p.Size, VA: head, LatencyNs: lat}, nil
			}
		}
	}
	return map4K(p.K, t, &p.S, va)
}

func (p *Hugetlbfs) around(t *kernel.Task, va, count uint64) (uint64, error) {
	return mapRun4K(p.K, t, &p.S, va, count)
}

// ---------------------------------------------------------------------------

// Trident is the paper's fault handler: 1GB first (pre-zeroed when
// possible), then 2MB, then 4KB (§5.1.2, Figure 5's fault-side mirror).
type Trident struct {
	K *kernel.Kernel
	// Zero is the async zero-fill daemon supplying pre-zeroed regions.
	Zero *zerofill.Daemon
	// Use2M enables the 2MB fallback; Trident-1Gonly (Figure 11) sets it
	// false.
	Use2M bool
	S     Stats
}

// NewTrident returns the Trident fault policy.
func NewTrident(k *kernel.Kernel, zero *zerofill.Daemon) *Trident {
	return &Trident{K: k, Zero: zero, Use2M: true}
}

// Name implements Policy.
func (p *Trident) Name() string {
	if !p.Use2M {
		return "Trident-1Gonly"
	}
	return "Trident"
}

// FaultStats implements Policy.
func (p *Trident) FaultStats() *Stats { return &p.S }

// Handle implements Policy.
func (p *Trident) Handle(t *kernel.Task, va uint64) (Result, error) {
	if r, ok := p.try1G(t, va); ok {
		return r, nil
	}
	if p.Use2M {
		if r, ok := try2M(p.K, t, &p.S, va); ok {
			return r, nil
		}
	}
	return map4K(p.K, t, &p.S, va)
}

func (p *Trident) around(t *kernel.Task, va, count uint64) (uint64, error) {
	return mapRun4K(p.K, t, &p.S, va, count)
}

func (p *Trident) try1G(t *kernel.Task, va uint64) (Result, bool) {
	head, ok := t.AS.AlignedRangeAt(va, units.Size1G)
	if !ok {
		return Result{}, false
	}
	// The 1GB range must be entirely unmapped: earlier faults may already
	// have placed smaller pages (promotion handles those later).
	if !rangeUnmapped(t, head, units.Size1G) {
		return Result{}, false
	}
	p.S.Attempts1G++
	lat := perfmodel.FaultSetupNs(units.Size1G)
	pfn, zeroed := p.Zero.TakeZeroed()
	if !zeroed {
		var err error
		pfn, err = p.K.Buddy.Alloc(units.Order1G, false)
		if err != nil {
			// No contiguous 1GB chunk: the Table-4 failure case.
			p.S.Failed1G++
			return Result{}, false
		}
		// Chunk available but not pre-zeroed: zero synchronously (§5.1.2's
		// 400 ms path; rare when the daemon keeps up).
		lat += perfmodel.ZeroNs(units.Page1G)
		p.S.Sync1GZero++
	}
	if err := p.K.MapSpecific(t, head, pfn, units.Size1G); err != nil {
		p.K.Buddy.Free(pfn, units.Order1G)
		p.S.Failed1G++
		return Result{}, false
	}
	p.S.Faults[units.Size1G]++
	p.S.TotalLatencyNs += lat
	t.Faults[units.Size1G]++
	return Result{Size: units.Size1G, VA: head, LatencyNs: lat}, true
}
