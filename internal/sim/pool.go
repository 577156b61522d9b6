package sim

import (
	"sync"

	"repro/internal/kernel"
)

// Machine pooling: kernel construction allocates megabytes of bookkeeping
// (phys bitsets, buddy free lists, the kernelAllocs array) and population
// grows megabytes more (page-table nodes, rmap/owner chunks), all of which
// a grid run re-allocated for every job. Kernels of the same physical size
// are interchangeable across runs — memBytes determines every arena size,
// and the buddy flavour (maxOrder) only the allocator, which
// kernel.Reflavour swaps — and kernel.Reset restores a used kernel to
// a state observably identical to a freshly booted one (DESIGN.md §5c), so
// finished runs park their kernel here and later runs of the same size
// reuse it, arenas warm.
//
// The pool is keyed by size alone so that the number of kernels a grid
// keeps alive is its peak number of concurrent runs, whatever its mix of
// flavours. Per-flavour slots would add a kernel whenever two runs of one
// flavour overlap, and the process's peak memory would follow that timing.
//
// Only kernels the runner constructed directly are pooled: the native
// kernel and a virtualized run's host kernel. Guest kernels are built
// inside virt.New with run-dependent sizing and interior wiring, so they
// are left to the garbage collector.
//
// Release happens only on fully successful runs. A failed or cancelled run
// abandons its kernel mid-state; Reset would likely still recover it, but
// correctness of every future run that might reuse the kernel would then
// rest on Reset being bulletproof against arbitrary partial states, which
// is not a contract worth buying for the rare failure path.
var (
	machinePoolMu sync.Mutex
	machinePool   = map[uint64][]*kernel.Kernel{}
)

// acquireKernel returns a pooled kernel of the given size and flavour, or
// boots a fresh one. Pooled kernels were Reset at release time; one of the
// same flavour is preferred, as its free lists are warm.
func acquireKernel(memBytes uint64, maxOrder int) *kernel.Kernel {
	machinePoolMu.Lock()
	s := machinePool[memBytes]
	if len(s) == 0 {
		machinePoolMu.Unlock()
		return kernel.New(memBytes, maxOrder)
	}
	i := len(s) - 1
	for j := i; j >= 0; j-- {
		if s[j].Buddy.MaxOrder() == maxOrder {
			i = j
			break
		}
	}
	k := s[i]
	s[i] = s[len(s)-1]
	s[len(s)-1] = nil
	machinePool[memBytes] = s[:len(s)-1]
	machinePoolMu.Unlock()
	if k.Buddy.MaxOrder() != maxOrder {
		k.Reflavour(maxOrder)
	}
	return k
}

// releaseKernel resets k and parks it for reuse. The pool is unbounded: it
// holds at most one kernel per concurrently-running job (each job releases
// before the next acquire it unblocks), so the worker pool's width bounds
// it in practice.
func releaseKernel(memBytes uint64, k *kernel.Kernel) {
	k.Reset()
	machinePoolMu.Lock()
	machinePool[memBytes] = append(machinePool[memBytes], k)
	machinePoolMu.Unlock()
}
