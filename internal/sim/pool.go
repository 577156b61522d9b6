package sim

import (
	"sync"

	"repro/internal/fragment"
	"repro/internal/hawkeye"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/stream"
	"repro/internal/tlb"
)

// Machine pooling: kernel construction allocates megabytes of bookkeeping
// (phys bitsets, the buddy's per-order free bitmaps, the reverse map's
// per-block arrays) and population grows megabytes more (4KB page-table
// pages and the directories above them, reverse-map leaves for blocks
// that head 4KB pages), all of which a grid run re-allocated
// for every job. kernel.Reset restores a used kernel to a state
// observably identical to a freshly booted one, and kernel.Boot then
// re-boots a Reset kernel in place into one observably identical to
// New(memBytes, maxOrder) for any size and flavour
// (DESIGN.md §5c). So every kernel is interchangeable with every other:
// finished runs park their kernels here and later runs reuse them, arenas
// warm, whatever their memory size and flavour.
//
// The pool has no key, so the number of kernels a grid keeps alive is its
// peak number of concurrently held kernels: one per native run and two per
// virtualized run (host and guest), times the worker count. Keyed by size,
// it kept up to that many per distinct size — Figure 12's guests come in
// several sizes — and the process's peak memory grew with the size mix.
//
// Every kernel a run uses is pooled: the native kernel, and a virtualized
// run's host and guest kernels (virt.New takes its guest from the caller).
//
// Release happens only on fully successful runs. A failed or cancelled run
// abandons its kernels mid-state; Reset would likely still recover them,
// but correctness of every future run that might reuse them would then
// rest on Reset being bulletproof against arbitrary partial states, which
// is not a contract worth buying for the rare failure path.
var (
	machinePoolMu sync.Mutex
	machinePool   []*kernel.Kernel
)

// acquireKernel returns a pooled kernel booted to memBytes and maxOrder,
// or boots a fresh one. Pooled kernels were Reset at release time. It
// takes the pooled kernel that fits best (see fit), the most recently
// parked among equals.
func acquireKernel(memBytes uint64, maxOrder int) *kernel.Kernel {
	machinePoolMu.Lock()
	best, bestClass, bestDist := -1, 0, uint64(0)
	for i := len(machinePool) - 1; i >= 0; i-- {
		class, dist := fit(machinePool[i], memBytes)
		if best < 0 || class < bestClass || class == bestClass && dist < bestDist {
			best, bestClass, bestDist = i, class, dist
		}
		if class == 0 {
			break
		}
	}
	if best < 0 {
		machinePoolMu.Unlock()
		return kernel.New(memBytes, maxOrder)
	}
	k := machinePool[best]
	last := len(machinePool) - 1
	machinePool[best] = machinePool[last]
	machinePool[last] = nil
	machinePool = machinePool[:last]
	machinePoolMu.Unlock()
	k.Boot(memBytes, maxOrder)
	return k
}

// fit ranks how well the parked kernel k serves a request for memBytes;
// lower (class, dist) fits better. In order: the same size, whatever the
// flavour (Boot switches the flavour in place, which costs no arena), the
// largest of the smaller kernels (grown), then the smallest of the larger
// ones (shrunk). Growing comes before shrinking because a larger kernel
// shrunk for this run is missing for the next run of its size, which must
// then grow a smaller kernel, and both kernels end up carrying the larger
// size's arenas. Which kernels are parked at an acquire depends on how the
// workers' runs interleave, so with the opposite order the process's
// memory would follow that timing: in Figure 12, an 11GB guest taking the
// parked 16GB host kernel instead of a 5GB guest kernel made the next host
// grow that 5GB kernel, and the processes where that happened peaked
// 36 MB (26%) higher than the rest.
func fit(k *kernel.Kernel, memBytes uint64) (class int, dist uint64) {
	switch size := k.Mem.Bytes(); {
	case size == memBytes:
		return 0, 0
	case size < memBytes:
		return 1, memBytes - size
	default:
		return 2, size - memBytes
	}
}

// releaseKernel resets k and parks it for reuse. The pool is unbounded: it
// holds at most the kernels of the concurrently-running jobs (each job
// releases before the next acquire it unblocks), so the worker pool's
// width bounds it in practice.
func releaseKernel(k *kernel.Kernel) {
	k.Reset()
	machinePoolMu.Lock()
	machinePool = append(machinePool, k)
	machinePoolMu.Unlock()
}

// Fragmenter pooling: fragment.Apply's buffers (the held lists, one entry
// per fill page, the per-order free chunk heads and two frame bitmaps)
// come to ~5 MB on a 4GB machine, and a run needs none of them once Apply
// returns: it reclaims nothing more. A Fragmenter applied again reuses the
// buffers its earlier applications grew, so fragmented runs park theirs
// here and later ones apply a parked one, at any size and flavour.
// Parking follows the kernels' rules: unkeyed, released only by
// successful runs, bounded in practice by the number of fragmented runs in
// flight, and guarded by machinePoolMu. A plain slice, not a sync.Pool: a
// sync.Pool is emptied by every garbage collection, and a long grid
// collects often.
var fragPool []*fragment.Fragmenter

// acquireFragmenter returns the most recently parked Fragmenter, or a new
// one.
func acquireFragmenter() *fragment.Fragmenter {
	machinePoolMu.Lock()
	defer machinePoolMu.Unlock()
	n := len(fragPool)
	if n == 0 {
		return new(fragment.Fragmenter)
	}
	f := fragPool[n-1]
	fragPool[n-1] = nil
	fragPool = fragPool[:n-1]
	return f
}

// releaseFragmenter parks f for reuse, dropping its references into the
// run's kernel, which is parked separately.
func releaseFragmenter(f *fragment.Fragmenter) {
	f.K, f.Cache = nil, nil
	machinePoolMu.Lock()
	fragPool = append(fragPool, f)
	machinePoolMu.Unlock()
}

// Run kits: a run's MMU and its scratch buffers have the same shape in
// every run of a geometry, so they are parked with the machine and a warm
// run allocates none of them. A kit holds
//   - the MMU: its TLB hierarchy and paging-structure caches (flat line
//     arrays, per-set size counts and signatures) and TranslateRuns' sweep
//     scratch, reset on acquire (mmu.MMU.Reset: caches emptied, statistics
//     zeroed, the shadow check off);
//   - the page-run buffer (batchAccesses runs, 48 KB), which the workload
//     refills from empty each batch;
//   - HawkEye's candidate list, which each kbinmanager pass refills from
//     empty (hawkeye.Daemon.Cands).
//
// Parking follows the Fragmenters' rules. The pool is unkeyed: an acquire
// takes the most recently parked kit, and if its MMU was built for another
// TLB geometry, Reset allocates new caches for the run's, as mmu.New would.
// So the pool never holds more kits than runs were in flight at once,
// however many geometries a grid sweeps (experiments.TLBSweep varies them
// per job). Nothing in a kit refers to a kernel.
type runKit struct {
	m     *mmu.MMU
	runs  []stream.Run
	cands []hawkeye.Candidate
}

var kitPool []runKit

// acquireRunKit returns a parked kit reset to a new MMU's state at geometry
// cfg, or a new kit (an MMU and nil buffers, grown on first use).
func acquireRunKit(cfg tlb.Config) runKit {
	machinePoolMu.Lock()
	n := len(kitPool)
	if n == 0 {
		machinePoolMu.Unlock()
		return runKit{m: mmu.New(cfg)}
	}
	kit := kitPool[n-1]
	kitPool[n-1] = runKit{}
	kitPool = kitPool[:n-1]
	machinePoolMu.Unlock()
	kit.m.Reset(cfg)
	return kit
}

// releaseRunKit parks kit for reuse.
func releaseRunKit(kit runKit) {
	machinePoolMu.Lock()
	kitPool = append(kitPool, kit)
	machinePoolMu.Unlock()
}
