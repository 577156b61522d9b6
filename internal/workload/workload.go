// Package workload models the memory behaviour of the paper's 12 Table-2
// applications. What the paper's results depend on — and therefore what
// these models encode — is:
//
//   - the allocation pattern: applications that pre-allocate large aligned
//     arenas (XSBench, GUPS, the GAPBS kernels) are 1GB-mappable at fault
//     time, while incremental allocators (Redis, Memcached, Btree, Canneal)
//     only become 1GB-mappable later, and churning allocators (Graph500,
//     SVM) leave persistent holes that keep parts of the address space
//     2MB-mappable but never 1GB-mappable (Figure 3);
//
//   - the access pattern: the hot-set size relative to TLB reach decides
//     which page size suffices (the shaded eight of Figure 1 have hot sets
//     beyond the 2MB-TLB reach), fringe accesses near the holes produce the
//     Figure-4 miss spikes, and stack accesses matter for Redis/GUPS
//     (§4.1's libHugetlbfs limitation);
//
//   - the performance model: intrinsic cycles per access and the fraction
//     of walk latency the out-of-order core cannot hide (§4.1).
//
// Footprints are scaled ≈÷10 from Table 2 (Btree ÷2.5, see its comment) so
// the default 32GB simulated machine preserves the footprint-to-TLB-reach
// regime of the paper's 384GB testbed; the scale knob shrinks them further
// for tests.
package workload

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/perfmodel"
	"repro/internal/stream"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/xrand"
)

// AllocPlan describes how an application builds its address space.
type AllocPlan struct {
	// PreallocFrac of the footprint is mmap'd up front in PreallocChunks
	// large 1GB-aligned chunks (arrays allocated at startup).
	PreallocFrac   float64
	PreallocChunks int
	// The rest arrives incrementally in PieceBytes mmaps, each touched
	// immediately (allocation interleaved with use).
	PieceBytes uint64
	// Gaps > 0 scatters that many small unmappable gaps evenly across the
	// incremental pieces (foreign mappings landing between heap chunks),
	// breaking 1GB-mappability at those points. The count is absolute —
	// foreign mappings do not multiply when footprints scale down.
	Gaps int
	// ChurnOps random free+realloc cycles run after allocation, punching
	// the persistent holes of Figure 3 (Graph500-style).
	ChurnOps int
	// StackBytes is the stack size (0 = default 8MB).
	StackBytes uint64
}

// AccessSpec describes the reference stream.
type AccessSpec struct {
	// HotBytes is the window (prefix of the heap, in VA order) receiving
	// the bulk of accesses. 0 means the whole heap is hot.
	HotBytes uint64
	// StackFrac of accesses hit the stack.
	StackFrac float64
	// FringeFrac of accesses hit 2MB-mappable-but-not-1GB-mappable fringe
	// bytes (redistributed to the hot window if no fringe exists). This is
	// the Figure-4 spike.
	FringeFrac float64
	// ColdFrac of accesses are uniform over the entire heap.
	ColdFrac float64
	// WriteFrac of accesses are stores.
	WriteFrac float64
}

// Spec is one application model.
type Spec struct {
	Name string
	// Threads is Table 2's thread count (documentation; the simulator
	// samples one interleaved reference stream).
	Threads int
	// PaperFootprint is Table 2's memory footprint.
	PaperFootprint uint64
	// Footprint is the simulated footprint at scale 1.0.
	Footprint uint64
	Alloc     AllocPlan
	Access    AccessSpec
	Model     perfmodel.WorkloadModel
	// Throughput marks applications whose performance the paper reports as
	// throughput (Redis, Memcached) rather than inverse runtime.
	Throughput bool
	// RequestBaseNs is the intrinsic (queueing/network/processing) p99
	// request latency for throughput workloads, calibrated so the 4KB
	// baseline lands at Table 5's values; translation exposure and fault
	// stalls add to it.
	RequestBaseNs float64
	// RequestInsertBytes is how much new memory each request allocates
	// (key-value stores keep inserting during measurement, so fault stalls
	// land in the latency tail).
	RequestInsertBytes uint64
	// Sensitive1G marks the shaded eight applications that benefit from
	// 1GB pages (Figure 1).
	Sensitive1G bool
}

// All returns the 12 Table-2 workload models, in the paper's figure order:
// the eight 1GB-sensitive applications first.
func All() []*Spec {
	return []*Spec{
		// --- the shaded eight (1GB-sensitive) ---
		{
			Name: "XSBench", Threads: 36,
			PaperFootprint: 117 * units.GiB,
			Footprint:      12 * units.GiB,
			// Monte Carlo particle transport: nuclide grids allocated up
			// front, uniform random lookups across them.
			Alloc:       AllocPlan{PreallocFrac: 1, PreallocChunks: 3},
			Access:      AccessSpec{HotBytes: 8 * units.GiB, ColdFrac: 0.05, WriteFrac: 0.05},
			Model:       perfmodel.WorkloadModel{BaseCyclesPerAccess: 140, Overlap: 0.13},
			Sensitive1G: true,
		},
		{
			Name: "SVM", Threads: 36,
			PaperFootprint: 679 * units.GiB / 10,
			Footprint:      7 * units.GiB,
			// Dataset arrays pre-allocated; model state grows incrementally.
			Alloc: AllocPlan{
				PreallocFrac: 0.6, PreallocChunks: 1,
				PieceBytes: 8 * units.MiB, Gaps: 2,
			},
			Access:      AccessSpec{HotBytes: 5 * units.GiB, FringeFrac: 0.10, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:       perfmodel.WorkloadModel{BaseCyclesPerAccess: 100, Overlap: 0.33},
			Sensitive1G: true,
		},
		{
			Name: "Graph500", Threads: 36,
			PaperFootprint: 635 * units.GiB / 10,
			Footprint:      13 * units.GiB / 2,
			// Edge lists pre-allocated, then build/search phases allocate,
			// free and re-allocate — the virtual fragmentation of Figure 3a.
			Alloc: AllocPlan{
				PreallocFrac: 0.75, PreallocChunks: 2,
				PieceBytes: 32 * units.MiB, Gaps: 3, ChurnOps: 120,
			},
			Access:      AccessSpec{HotBytes: 5 * units.GiB, FringeFrac: 0.22, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:       perfmodel.WorkloadModel{BaseCyclesPerAccess: 110, Overlap: 0.16},
			Sensitive1G: true,
		},
		{
			Name: "GUPS", Threads: 1,
			PaperFootprint: 32 * units.GiB,
			Footprint:      8 * units.GiB,
			// One giant table, uniform random updates; TLB-sensitive stack.
			Alloc:       AllocPlan{PreallocFrac: 1, PreallocChunks: 1},
			Access:      AccessSpec{StackFrac: 0.05, WriteFrac: 0.8},
			Model:       perfmodel.WorkloadModel{BaseCyclesPerAccess: 68, Overlap: 0.85},
			Sensitive1G: true,
		},
		{
			Name: "Btree", Threads: 1,
			PaperFootprint: 105 * units.GiB / 10,
			// Scaled ÷2.33 rather than ÷10: at ÷10 the tree would fit
			// entirely within the 2MB-TLB reach and lose the paper's
			// 1GB-sensitivity regime.
			Footprint: 9 * units.GiB / 2,
			// The tree grows node by node: incremental, never 1GB-mappable
			// at fault time (Table 3: zero 1GB pages from the fault path).
			Alloc:       AllocPlan{PieceBytes: 4 * units.MiB, Gaps: 1},
			Access:      AccessSpec{HotBytes: 4 * units.GiB, ColdFrac: 0.05, WriteFrac: 0.1},
			Model:       perfmodel.WorkloadModel{BaseCyclesPerAccess: 80, Overlap: 0.85},
			Sensitive1G: true,
		},
		{
			Name: "Redis", Threads: 1,
			PaperFootprint: 436 * units.GiB / 10,
			Footprint:      9 * units.GiB / 2,
			// Key-value pairs inserted over time: small allocator chunks,
			// plus a TLB-sensitive stack that libHugetlbfs cannot map (§4.1).
			Alloc:              AllocPlan{PieceBytes: 1 * units.MiB, Gaps: 1},
			Access:             AccessSpec{HotBytes: 4 * units.GiB, StackFrac: 0.08, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:              perfmodel.WorkloadModel{BaseCyclesPerAccess: 90, Overlap: 0.25},
			Throughput:         true,
			RequestBaseNs:      46.4e6, // Table 5: 4KB p99 ≈ 47.3 ms
			RequestInsertBytes: 256 * units.KiB,
			Sensitive1G:        true,
		},
		{
			Name: "Memcached", Threads: 36,
			PaperFootprint: 79 * units.GiB,
			Footprint:      8 * units.GiB,
			// Slab allocator: sizable slab mmaps, still incremental.
			Alloc:              AllocPlan{PieceBytes: 64 * units.MiB, Gaps: 2},
			Access:             AccessSpec{HotBytes: 6 * units.GiB, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:              perfmodel.WorkloadModel{BaseCyclesPerAccess: 100, Overlap: 0.14},
			Throughput:         true,
			RequestBaseNs:      1.46e6, // Table 5: 4KB p99 ≈ 1.53 ms
			RequestInsertBytes: 128 * units.KiB,
			Sensitive1G:        true,
		},
		{
			Name: "Canneal", Threads: 1,
			PaperFootprint: 32 * units.GiB,
			Footprint:      7 * units.GiB / 2,
			// Netlist elements allocated individually (glibc arenas), then
			// pointer-chased randomly: almost no locality to hide walks.
			Alloc: AllocPlan{
				PreallocFrac: 0.25, PreallocChunks: 1,
				PieceBytes: 1 * units.MiB,
			},
			Access:      AccessSpec{HotBytes: 7 * units.GiB / 2 * 97 / 100, ColdFrac: 0.03, WriteFrac: 0.2},
			Model:       perfmodel.WorkloadModel{BaseCyclesPerAccess: 32, Overlap: 0.90},
			Sensitive1G: true,
		},
		// --- the four that gain little beyond 2MB ---
		{
			Name: "CC", Threads: 36,
			PaperFootprint: 72 * units.GiB,
			Footprint:      7 * units.GiB,
			// GAPBS: big arrays, but the iteration working set stays within
			// the 2MB-TLB reach.
			Alloc:  AllocPlan{PreallocFrac: 1, PreallocChunks: 4},
			Access: AccessSpec{HotBytes: 22 * units.GiB / 10, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:  perfmodel.WorkloadModel{BaseCyclesPerAccess: 100, Overlap: 0.50},
		},
		{
			Name: "BC", Threads: 36,
			PaperFootprint: 72 * units.GiB,
			Footprint:      7 * units.GiB,
			// Hot set at the edge of the 2MB reach: no native 1GB benefit,
			// slight sensitivity under virtualization (§4.2).
			Alloc:  AllocPlan{PreallocFrac: 1, PreallocChunks: 4},
			Access: AccessSpec{HotBytes: 3 * units.GiB, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:  perfmodel.WorkloadModel{BaseCyclesPerAccess: 100, Overlap: 0.45},
		},
		{
			Name: "PR", Threads: 36,
			PaperFootprint: 72 * units.GiB,
			Footprint:      7 * units.GiB,
			Alloc:          AllocPlan{PreallocFrac: 1, PreallocChunks: 4},
			Access:         AccessSpec{HotBytes: 22 * units.GiB / 10, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:          perfmodel.WorkloadModel{BaseCyclesPerAccess: 110, Overlap: 0.50},
		},
		{
			Name: "CG.D", Threads: 36,
			PaperFootprint: 50 * units.GiB,
			Footprint:      5 * units.GiB,
			// NPB conjugate gradient: strided sweeps with high locality.
			Alloc:  AllocPlan{PreallocFrac: 1, PreallocChunks: 3},
			Access: AccessSpec{HotBytes: 2 * units.GiB, ColdFrac: 0.05, WriteFrac: 0.3},
			Model:  perfmodel.WorkloadModel{BaseCyclesPerAccess: 120, Overlap: 0.40},
		},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (*Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return nil, false
}

// Sensitive returns the shaded eight 1GB-sensitive workloads.
func Sensitive() []*Spec {
	var out []*Spec
	for _, s := range All() {
		if s.Sensitive1G {
			out = append(out, s)
		}
	}
	return out
}

// Instance is a workload instantiated in an address space: its memory is
// allocated and faulted in, and it can generate its reference stream.
type Instance struct {
	Spec *Spec
	K    *kernel.Kernel
	Task *kernel.Task

	StackVA    uint64
	StackBytes uint64

	rng *xrand.Rand

	// Linearized heap segments (ascending VA) with cumulative sizes and a
	// flat offset index for O(1) position→VA mapping.
	heap     segments
	fringe   segments
	hotBytes uint64
	// Hoisted Spec.Access thresholds (see buildSegments): Next runs once per
	// sampled reference, so it reads these instance-local values instead of
	// chasing Spec and re-adding the fraction fields on every draw. The sums
	// are formed in the same left-to-right order Next previously used, so
	// every comparison sees bit-identical values.
	writeFrac    float64
	stackThresh  float64 // StackFrac
	fringeThresh float64 // StackFrac + FringeFrac
	coldThresh   float64 // StackFrac + FringeFrac + ColdFrac
	hasStack     bool
	hasFringe    bool
	// plan holds the compiled draw stream for NextRuns: the rejection
	// bounds of every bounded draw, precomputed once per heap geometry (see
	// refreshPlan) so the run-coalescing hot loop is pure splitmix64
	// arithmetic plus flat lut reads, with no per-draw modulus setup.
	plan drawPlan
	// Faults counts demand faults serviced during population, churn and
	// Extend; FaultNs is their summed synchronous latency. (Table 5's tail
	// latency comes from the request histogram in the simulator, not from
	// here — individual fault latencies had no consumer, and retaining them
	// per fault dominated population's allocations.)
	Faults  uint64
	FaultNs float64
}

type segments struct {
	starts []uint64 // VA of each segment
	cum    []uint64 // cumulative bytes before each segment
	total  uint64

	// lut is a flat offset index: lut[b] is the segment containing byte
	// position b<<lutShift, so at() starts from the right neighbourhood and
	// advances at most the few segments sharing that bucket instead of
	// binary-searching the whole cumulative table on every draw. Rebuilt
	// lazily after add() (segments arrive in batches, draws in millions).
	lut      []int32
	lutShift uint
}

func (s *segments) add(start, size uint64) {
	s.starts = append(s.starts, start)
	s.cum = append(s.cum, s.total)
	s.total += size
	s.lut = nil
}

// buildLut indexes byte positions at a granularity that keeps the table at
// most ~4 entries per segment, bounding both memory and the advance loop.
func (s *segments) buildLut() {
	shift := uint(12)
	for s.total>>shift > uint64(4*len(s.starts)) {
		shift++
	}
	lut := make([]int32, s.total>>shift+1)
	seg := 0
	for b := range lut {
		pos := uint64(b) << shift
		for seg+1 < len(s.cum) && s.cum[seg+1] <= pos {
			seg++
		}
		lut[b] = int32(seg)
	}
	s.lut, s.lutShift = lut, shift
}

// at maps a byte position in [0, total) to a VA. The lookup lands on the
// last segment whose cumulative start is <= pos — the same segment the
// previous sort.Search implementation selected.
func (s *segments) at(pos uint64) uint64 {
	if s.lut == nil {
		s.buildLut()
	}
	i := int(s.lut[pos>>s.lutShift])
	for i+1 < len(s.cum) && s.cum[i+1] <= pos {
		i++
	}
	return s.starts[i] + (pos - s.cum[i])
}

// Instantiate allocates the workload's memory in task's address space,
// faulting every page through policy exactly as first-touch would, and
// returns the ready-to-run instance. scale multiplies the footprint and hot
// set (1.0 = the package defaults; tests use smaller values).
func (s *Spec) Instantiate(k *kernel.Kernel, task *kernel.Task, policy fault.Policy, seed uint64, scale float64) (*Instance, error) {
	return s.InstantiateObserved(k, task, policy, seed, scale, nil)
}

// InstantiateObserved is Instantiate with a progress callback invoked as
// the allocation unfolds ("prealloc", "piece", "churn") — the kernel-module
// sampling the paper uses for Figure 3's execution timeline.
func (s *Spec) InstantiateObserved(k *kernel.Kernel, task *kernel.Task, policy fault.Policy, seed uint64, scale float64, observe func(stage string)) (*Instance, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("workload: scale %v must be positive", scale)
	}
	inst := &Instance{Spec: s, K: k, Task: task, rng: xrand.New(seed)}

	footprint := scaleBytes(s.Footprint, scale)
	stack := s.Alloc.StackBytes
	if stack == 0 {
		stack = 8 * units.MiB
	}
	sva, err := task.AS.MMapStack(stack)
	if err != nil {
		return nil, fmt.Errorf("workload %s: stack: %w", s.Name, err)
	}
	inst.StackVA, inst.StackBytes = sva, stack
	if _, err := inst.touch(policy, sva, stack); err != nil {
		return nil, err
	}

	// Pre-allocated arenas.
	prealloc := scaleBytes(uint64(float64(footprint)*s.Alloc.PreallocFrac), 1)
	if s.Alloc.PreallocFrac > 0 {
		chunks := s.Alloc.PreallocChunks
		if chunks <= 0 {
			chunks = 1
		}
		per := units.AlignUp(prealloc/uint64(chunks), units.Page4K)
		for i := 0; i < chunks; i++ {
			va, err := task.AS.MMapAligned(per, units.Page1G, vmm.KindAnon)
			if err != nil {
				return nil, fmt.Errorf("workload %s: prealloc: %w", s.Name, err)
			}
			if _, err := inst.touch(policy, va, per); err != nil {
				return nil, err
			}
			if observe != nil {
				observe("prealloc")
			}
		}
	}

	// Incremental pieces, touched as they arrive.
	remaining := footprint - prealloc
	piece := s.Alloc.PieceBytes
	if piece == 0 {
		piece = 4 * units.MiB
	}
	type region struct{ va, size uint64 }
	var pieces []region
	nPieces := 0
	if piece > 0 && remaining > 0 {
		nPieces = int((remaining + piece - 1) / piece)
	}
	gapEvery := 0
	if s.Alloc.Gaps > 0 && nPieces > s.Alloc.Gaps {
		gapEvery = nPieces / (s.Alloc.Gaps + 1)
	}
	for n := 0; remaining > 0; n++ {
		sz := piece
		if sz > remaining {
			sz = units.AlignUp(remaining, units.Page4K)
		}
		va, err := task.AS.MMap(sz, vmm.KindAnon)
		if err != nil {
			return nil, fmt.Errorf("workload %s: incremental: %w", s.Name, err)
		}
		if _, err := inst.touch(policy, va, sz); err != nil {
			return nil, err
		}
		pieces = append(pieces, region{va, sz})
		if observe != nil && n%8 == 0 {
			observe("piece")
		}
		if remaining <= sz {
			remaining = 0
		} else {
			remaining -= sz
		}
		if gapEvery > 0 && (n+1)%gapEvery == 0 {
			// A foreign mapping lands after this piece: burn a little VA so
			// the next piece cannot merge into the same VMA run.
			gap, err := task.AS.MMap(4*units.Page4K, vmm.KindAnon)
			if err != nil {
				return nil, err
			}
			if err := task.AS.MUnmap(gap+units.Page4K, 2*units.Page4K); err != nil {
				return nil, err
			}
		}
	}

	// Churn: free random pieces and allocate replacements (touched), leaving
	// holes behind.
	for op := 0; op < s.Alloc.ChurnOps && len(pieces) > 0; op++ {
		i := inst.rng.Intn(len(pieces))
		victim := pieces[i]
		pieces[i] = pieces[len(pieces)-1]
		pieces = pieces[:len(pieces)-1]
		if err := k.UnmapRange(task, victim.va, victim.va+victim.size); err != nil {
			return nil, fmt.Errorf("workload %s: churn unmap: %w", s.Name, err)
		}
		if err := task.AS.MUnmap(victim.va, victim.size); err != nil {
			return nil, fmt.Errorf("workload %s: churn unmap: %w", s.Name, err)
		}
		sz := units.AlignUp(victim.size/2+inst.rng.Uint64n(victim.size), units.Page4K)
		va, err := task.AS.MMap(sz, vmm.KindAnon)
		if err != nil {
			return nil, fmt.Errorf("workload %s: churn alloc: %w", s.Name, err)
		}
		if _, err := inst.touch(policy, va, sz); err != nil {
			return nil, err
		}
		pieces = append(pieces, region{va, sz})
		if observe != nil {
			observe("churn")
		}
	}

	inst.buildSegments(scale)
	return inst, nil
}

// perFault, set only by tests, turns fault-around off: touch then takes
// every fault through Handle, the per-fault loop that is fault-around's
// oracle.
var perFault bool

// touch demand-faults [va, va+size) in first-touch order, returning the
// summed synchronous latency of the faults it serviced. Already-mapped
// stretches are skipped (a greedy policy like 1GB-hugetlbfs maps whole
// aligned huge pages, covering later allocations in the same range). Once
// a fault maps 4KB, fault.Around serves the faults at the rest of its 2MB
// window in one call; each page it maps still counts as a fault of its
// own, its latency added to the stall one page at a time.
func (inst *Instance) touch(policy fault.Policy, va, size uint64) (float64, error) {
	end := va + size
	var stall float64
	for va < end {
		if m, ok := inst.Task.AS.PT.Lookup(va); ok {
			va = m.VA + m.Size.Bytes()
			continue
		}
		r, err := policy.Handle(inst.Task, va)
		if err != nil {
			return stall, fmt.Errorf("workload %s: fault at %#x: %w", inst.Spec.Name, va, err)
		}
		inst.Faults++
		stall += r.LatencyNs
		next := r.VA + r.Size.Bytes()
		if next <= va {
			return stall, fmt.Errorf("workload %s: fault did not advance at %#x", inst.Spec.Name, va)
		}
		va = next
		if perFault {
			continue
		}
		n, lat, err := fault.Around(policy, inst.Task, r, end)
		inst.Faults += n
		for j := uint64(0); j < n; j++ {
			stall += lat
		}
		va += n * units.Page4K
		if err != nil {
			return stall, fmt.Errorf("workload %s: fault at %#x: %w", inst.Spec.Name, va, err)
		}
	}
	inst.FaultNs += stall
	return stall, nil
}

// buildSegments derives the linearized heap, the 1GB-unmappable fringe and
// the hot window from the final VMA layout.
func (inst *Instance) buildSegments(scale float64) {
	inst.heap = segments{}
	inst.fringe = segments{}
	for _, v := range inst.Task.AS.VMAs() {
		if v.Kind == vmm.KindStack {
			continue
		}
		inst.heap.add(v.Start, v.Size())
		core0 := units.AlignUp(v.Start, units.Page1G)
		core1 := units.Align(v.End, units.Page1G)
		if core1 <= core0 {
			// Whole VMA is fringe.
			inst.fringe.add(v.Start, v.Size())
			continue
		}
		if core0 > v.Start {
			inst.fringe.add(v.Start, core0-v.Start)
		}
		if v.End > core1 {
			inst.fringe.add(core1, v.End-core1)
		}
	}
	inst.hotBytes = scaleBytes(inst.Spec.Access.HotBytes, scale)
	if inst.hotBytes == 0 || inst.hotBytes > inst.heap.total {
		inst.hotBytes = inst.heap.total
	}
	a := inst.Spec.Access
	inst.writeFrac = a.WriteFrac
	inst.stackThresh = a.StackFrac
	inst.fringeThresh = a.StackFrac + a.FringeFrac
	inst.coldThresh = a.StackFrac + a.FringeFrac + a.ColdFrac
	inst.hasStack = inst.StackBytes > 0
	inst.hasFringe = inst.fringe.total > 0
	inst.refreshPlan()
}

// drawPlan is the compiled form of the draw stream: for each window Next
// draws from, the splitmix64 rejection bound Uint64n would recompute per
// draw (math.MaxUint64 - math.MaxUint64%n). Draw semantics are untouched —
// the same raw 64-bit values are accepted, rejected and reduced — so the
// NextRuns stream is bit-identical to repeated Next calls.
type drawPlan struct {
	stackBound  uint64
	fringeBound uint64
	heapBound   uint64
	hotBound    uint64
}

// refreshPlan recompiles the draw plan and (re)builds the segment offset
// luts eagerly. Called whenever the heap geometry changes: buildSegments at
// instantiate time, and Extend when measurement-time inserts grow the heap.
func (inst *Instance) refreshPlan() {
	inst.plan.stackBound = rejectBound(inst.StackBytes)
	inst.plan.fringeBound = rejectBound(inst.fringe.total)
	inst.plan.heapBound = rejectBound(inst.heap.total)
	inst.plan.hotBound = rejectBound(inst.hotBytes)
	if inst.heap.total > 0 && inst.heap.lut == nil {
		inst.heap.buildLut()
	}
	if inst.fringe.total > 0 && inst.fringe.lut == nil {
		inst.fringe.buildLut()
	}
}

// rejectBound returns the smallest raw Uint64 value Uint64n(n) would reject
// (0 for an empty window, which is never drawn from).
func rejectBound(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return math.MaxUint64 - math.MaxUint64%n
}

// HeapBytes returns the total allocated heap bytes.
func (inst *Instance) HeapBytes() uint64 { return inst.heap.total }

// FringeBytes returns the heap bytes that are not coverable by any aligned
// 1GB page (the Figure-3 gap).
func (inst *Instance) FringeBytes() uint64 { return inst.fringe.total }

// Next returns the next reference (virtual address and whether it is a
// store).
func (inst *Instance) Next() (uint64, bool) {
	write := inst.rng.Bool(inst.writeFrac)
	r := inst.rng.Float64()
	switch {
	case r < inst.stackThresh && inst.hasStack:
		return inst.StackVA + inst.rng.Uint64n(inst.StackBytes), write
	case r < inst.fringeThresh && inst.hasFringe:
		return inst.fringe.at(inst.rng.Uint64n(inst.fringe.total)), write
	case r < inst.coldThresh:
		return inst.heap.at(inst.rng.Uint64n(inst.heap.total)), write
	default:
		return inst.heap.at(inst.rng.Uint64n(inst.hotBytes)), write
	}
}

// NextRuns draws the next n references of the stream and coalesces
// consecutive references to the same page into stream.Runs at draw time.
// It consumes exactly the raw splitmix64 values n Next calls would consume,
// in the same order with the same accept/reject decisions, so interleaving
// NextRuns calls of any sizes never drifts from Next's stream. The page
// boundary is the finest configured page size (4KB), so every reference of
// a run lies in one page at every size a TLB could map it with. buf is the
// reusable backing array (its contents are overwritten; it grows only if n
// exceeds its capacity); the returned slice's Len fields sum to n. Each
// run's leading reference is Next's draw verbatim, and expanding each run
// to Len copies of that page reproduces Next's page sequence bit-for-bit
// (pinned by TestNextRunsDeterminism across ragged draw counts). The
// per-draw work is inlined splitmix64 plus a precompiled rejection bound
// and the flat segment-offset lut — no per-draw bound arithmetic.
func (inst *Instance) NextRuns(buf []stream.Run, n int) []stream.Run {
	rng := inst.rng
	runs := buf[:0]
	curPage := ^uint64(0) // no canonical VA shifts down to this sentinel
	pageShift := units.Size4K.Shift()
	for i := 0; i < n; i++ {
		// rng.Bool(writeFrac) and rng.Float64(), spelled out so the
		// compiler keeps the whole draw inline; then Next's window
		// selection and reduction with the hoisted rejection bounds.
		write := float64(rng.Uint64()>>11)/(1<<53) < inst.writeFrac
		r := float64(rng.Uint64()>>11) / (1 << 53)
		var va uint64
		switch {
		case r < inst.stackThresh && inst.hasStack:
			va = inst.StackVA + draw(rng, inst.StackBytes, inst.plan.stackBound)
		case r < inst.fringeThresh && inst.hasFringe:
			va = inst.fringe.at(draw(rng, inst.fringe.total, inst.plan.fringeBound))
		case r < inst.coldThresh:
			va = inst.heap.at(draw(rng, inst.heap.total, inst.plan.heapBound))
		default:
			va = inst.heap.at(draw(rng, inst.hotBytes, inst.plan.hotBound))
		}
		if page := va >> pageShift; page == curPage {
			runs[len(runs)-1].Len++
		} else {
			runs = append(runs, stream.Run{Access: stream.Access{VA: va, Write: write}, Len: 1})
			curPage = page
		}
	}
	return runs
}

// draw is Uint64n(n) with the rejection bound hoisted: accept the first raw
// value below bound (identical accept/reject sequence) and reduce mod n.
func draw(rng *xrand.Rand, n, bound uint64) uint64 {
	v := rng.Uint64()
	for v >= bound {
		v = rng.Uint64()
	}
	return v % n
}

func scaleBytes(b uint64, scale float64) uint64 {
	return units.AlignUp(uint64(float64(b)*scale), units.Page4K)
}

// Extend allocates `bytes` more heap (one incremental piece) and touches it
// through policy, modelling a key-value store inserting during measurement.
// It returns the total synchronous fault latency incurred. The new memory
// joins the heap segments (accessible by Next) but the hot window and
// fringe are left as built.
func (inst *Instance) Extend(policy fault.Policy, bytes uint64) (float64, error) {
	bytes = units.AlignUp(bytes, units.Page4K)
	va, err := inst.Task.AS.MMap(bytes, vmm.KindAnon)
	if err != nil {
		return 0, fmt.Errorf("workload %s: extend: %w", inst.Spec.Name, err)
	}
	stall, err := inst.touch(policy, va, bytes)
	if err != nil {
		return 0, err
	}
	inst.heap.add(va, bytes)
	inst.refreshPlan()
	return stall, nil
}
