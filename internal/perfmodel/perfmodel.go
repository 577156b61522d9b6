// Package perfmodel converts the simulator's event counts into the
// quantities the paper reports: cycles spent in page walks, normalized
// performance, and operation latencies.
//
// The cost constants are calibrated against every absolute number the paper
// gives, so the microbenchmark experiments reproduce them by construction
// and the macro experiments inherit a consistent time base:
//
//   - zero-filling 1GB on a fault ≈ 400 ms; with async zero-fill ≈ 2.7 ms (§5.1.2)
//   - a 2MB page fault ≈ 850 µs (§5.1.2)
//   - copy-based promotion of 512×2MB → 1GB ≈ 600 ms (§6)
//   - a hypercall costs ≈ 300 ns (§6)
//   - unbatched copy-less promotion < 30 ms; batched ≈ 500 µs (§6)
//
// Wall-clock performance follows the paper's own observation (§4.1): the
// speedup from large pages depends on the portion of walk cycles on the
// critical path of an out-of-order core, which we expose as a per-workload
// overlap factor.
package perfmodel

import "repro/internal/units"

// CPUGHz is the clock of the paper's Xeon Gold 6140.
const CPUGHz = 2.3

// Memory-operation costs, in nanoseconds unless noted.
const (
	// ZeroNsPerByte: zeroing bandwidth. 1GB × 0.3725 ns/B ≈ 400 ms (§5.1.2).
	ZeroNsPerByte = 0.3725

	// CopyNsPerByte: page-migration copy bandwidth (read+write+cache
	// pollution). 1GB × 0.559 ns/B ≈ 600 ms, the paper's copy-based 1GB
	// promotion cost (§6).
	CopyNsPerByte = 0.559

	// FaultSetup4KNs is the fixed cost of a 4KB minor fault (trap, VMA
	// lookup, PTE install).
	FaultSetup4KNs = 1_200

	// FaultSetup2MNs is the fixed (non-zeroing) part of a 2MB fault;
	// 68 µs + 2MB zeroing (781 µs) ≈ 850 µs (§5.1.2).
	FaultSetup2MNs = 68_000

	// FaultSetup1GNs is the fixed part of a 1GB fault: with a pre-zeroed
	// region from the async pool this is the paper's 2.7 ms (§5.1.2).
	FaultSetup1GNs = 2_700_000

	// HypercallNs is the guest↔hypervisor switch cost (§6).
	HypercallNs = 300

	// ExchangeBatchedNs is the per-page cost of a gPA↔hPA mapping exchange
	// when batched: 512 exchanges + 1 hypercall ≈ 500 µs (§6).
	ExchangeBatchedNs = 975

	// ExchangeUnbatchedNs is the per-page cost when each 2MB exchange takes
	// its own hypercall with VM exit/entry and remote shootdown:
	// 512 × ≈58 µs ≈ 30 ms (§6).
	ExchangeUnbatchedNs = 58_000

	// PTEUpdateNs is the cost of rewriting one PTE plus its shootdown share
	// during promotion/compaction bookkeeping.
	PTEUpdateNs = 150
)

// Translation-hardware costs, in cycles.
const (
	// L2TLBHitCycles is the added latency of a translation served by the L2
	// TLB rather than L1.
	L2TLBHitCycles = 7

	// WalkAccessCycles is the average cost of one page-table memory access
	// during a walk (a mix of cache hits and DRAM on table data).
	WalkAccessCycles = 45
)

// FaultSetupNs returns the fixed (non-zeroing) fault cost for a page size.
func FaultSetupNs(size units.PageSize) float64 {
	switch size {
	case units.Size1G:
		return FaultSetup1GNs
	case units.Size2M:
		return FaultSetup2MNs
	default:
		return FaultSetup4KNs
	}
}

// ZeroNs returns the time to zero n bytes synchronously.
func ZeroNs(n uint64) float64 { return float64(n) * ZeroNsPerByte }

// CopyNs returns the time to copy n bytes during migration/promotion.
func CopyNs(n uint64) float64 { return float64(n) * CopyNsPerByte }

// CyclesToNs converts core cycles to nanoseconds at the modeled clock.
func CyclesToNs(cycles float64) float64 { return cycles / CPUGHz }

// TranslationStats are the per-run translation event counts produced by the
// MMU simulation (package mmu), already summed over page sizes.
type TranslationStats struct {
	// Accesses is the number of memory references translated.
	Accesses uint64
	// L2Hits is the number of translations served by the L2 TLB.
	L2Hits uint64
	// Walks is the number of page walks performed.
	Walks uint64
	// WalkMemAccesses is the total page-table memory accesses over all
	// walks (PWC- and nesting-adjusted).
	WalkMemAccesses uint64
}

// Add accumulates other into s.
func (s *TranslationStats) Add(other TranslationStats) {
	s.Accesses += other.Accesses
	s.L2Hits += other.L2Hits
	s.Walks += other.Walks
	s.WalkMemAccesses += other.WalkMemAccesses
}

// WalkCyclesPerAccess is the average translation-overhead cycles per memory
// reference: walk memory accesses plus L2-TLB hit penalties.
func (s TranslationStats) WalkCyclesPerAccess() float64 {
	if s.Accesses == 0 {
		return 0
	}
	cycles := float64(s.WalkMemAccesses)*WalkAccessCycles + float64(s.L2Hits)*L2TLBHitCycles
	return cycles / float64(s.Accesses)
}

// WorkloadModel captures how a workload's wall-clock time responds to
// translation overhead.
type WorkloadModel struct {
	// BaseCyclesPerAccess is the average non-translation work per sampled
	// memory reference (compute + cache hierarchy), i.e. the app's intrinsic
	// CPI scaled to the sampling rate.
	BaseCyclesPerAccess float64
	// Overlap is the fraction of walk cycles that land on the critical path
	// of the out-of-order core (§4.1: "the speed up depends upon what
	// portions of walk cycles are on the critical path"). 1 = fully exposed.
	Overlap float64
}

// Perf summarizes one configuration's modeled performance.
type Perf struct {
	// WalkCycleFraction is the fraction of execution cycles with a walk
	// active — the quantity the paper measures via
	// DTLB_*_MISSES.WALK_ACTIVE (Figures 1a, 2a, 9b, 10b).
	WalkCycleFraction float64
	// CyclesPerAccess is the modeled execution time per sampled reference,
	// including exposed walk cycles and any daemon overhead.
	CyclesPerAccess float64
}

// Evaluate combines translation stats with the workload model.
// daemonOverhead is the extra CPU fraction consumed by kernel threads
// (khugepaged, kbinmanager, zero-fill) that compete with the application
// (0 = none, 0.1 = 10% slower).
func (w WorkloadModel) Evaluate(s TranslationStats, daemonOverhead float64) Perf {
	walkCPA := s.WalkCyclesPerAccess()
	exec := (w.BaseCyclesPerAccess + w.Overlap*walkCPA) * (1 + daemonOverhead)
	frac := 0.0
	// The WALK_ACTIVE counter counts walk-active cycles against total
	// cycles; walks can overlap execution, so the fraction uses raw walk
	// cycles over execution cycles, capped at 1.
	if exec > 0 {
		frac = walkCPA / exec
		if frac > 1 {
			frac = 1
		}
	}
	return Perf{WalkCycleFraction: frac, CyclesPerAccess: exec}
}
