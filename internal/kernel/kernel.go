// Package kernel is the simulator's operating-system layer: it owns the
// physical memory bookkeeping and buddy allocator, creates tasks (address
// spaces), and provides the primitive operations every memory-management
// policy is built from — allocate-and-map, unmap-and-free, move (for
// compaction) and remap (for promotion and for Trident_pv's copy-less
// exchange).
//
// Policies themselves (THP, HawkEye, Trident's fault path, khugepaged,
// compaction, zero-fill) live in their own packages and drive the kernel
// through this API, mirroring how the paper's changes are patches over core
// Linux mm code.
package kernel

import (
	"fmt"

	"repro/internal/buddy"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/vmm"
)

// Task is a process: an address space plus accounting.
type Task struct {
	Name string
	AS   *vmm.AddressSpace

	// Faults counts minor page faults served, by page size actually mapped.
	Faults [units.NumPageSizes]uint64
}

// MappedBytes returns the bytes this task has mapped at the given size.
func (t *Task) MappedBytes(size units.PageSize) uint64 { return t.AS.PT.MappedBytes(size) }

// Kernel is the machine-wide OS state.
type Kernel struct {
	Mem   *phys.Memory
	Buddy *buddy.Allocator

	// tasks holds the live tasks by address-space ID: task i+1 at index i.
	// IDs are handed out densely from 1 and only Reset removes tasks, so
	// resolving an ID is one index.
	tasks []*Task

	// Shootdown, if set, is invoked whenever mappings are removed or
	// repointed so the simulation's TLBs can be invalidated: the n pages of
	// the given size at va, va+size, … are affected. Single-page operations
	// pass n = 1; run teardown (UnmapRange, UnmapRangeKeep) and MoveRun pass
	// a whole run.
	Shootdown func(t *Task, va, n uint64, size units.PageSize)

	// Ops counts completed page-table operations since boot. The counters
	// are deterministic functions of the op stream (never of wall time),
	// cheap enough to keep always-on; the observability layer samples them
	// as per-batch deltas.
	Ops OpStats

	// asPool holds address spaces harvested (and Reset) by Kernel.Reset;
	// NewTask reuses them so a pooled kernel's next run populates into warm
	// page-table node arenas instead of re-allocating them.
	asPool []*vmm.AddressSpace

	// movePFNs is MoveRun's reused buffer of the moved pages' old frames.
	movePFNs []uint64
}

// OpStats counts the kernel's primitive page-table operations.
type OpStats struct {
	Maps      uint64 // mappings established (fault, promotion, zero-pool)
	Unmaps    uint64 // mappings removed (free or keep-frames)
	Moves     uint64 // compaction page moves
	Exchanges uint64 // Trident_pv frame exchanges
	Demotes   uint64 // huge-page demotions
}

// New boots a kernel over memBytes of physical memory: the zero Kernel,
// booted. maxOrder selects the buddy flavour: units.StockMaxOrder for
// unmodified Linux, units.TridentMaxOrder for Trident's 1GB-extended free
// lists.
func New(memBytes uint64, maxOrder int) *Kernel {
	k := new(Kernel)
	k.Boot(memBytes, maxOrder)
	return k
}

// Boot boots the zero Kernel, or re-boots a just-Reset one, over memBytes
// of physical memory with buddy flavour maxOrder. A re-boot keeps every
// arena: the phys bookkeeping and the one buddy allocator are re-sized
// and re-flavoured in place (see
// phys.Memory.Boot and buddy.Allocator.Boot), touching only the
// difference. Either way the kernel is then observably identical to
// New(memBytes, maxOrder), which lets the machine pool (internal/sim)
// hand any parked kernel to a run of any memory size and flavour.
func (k *Kernel) Boot(memBytes uint64, maxOrder int) {
	if k.Mem == nil {
		k.Mem = phys.NewMemory(memBytes)
		k.Buddy = buddy.New(k.Mem, maxOrder)
	} else {
		k.mustBeReset("Boot")
		k.Mem.Boot(memBytes)
		k.Buddy.Boot(maxOrder)
	}
}

// NewTask creates a process with an empty address space (drawn from the
// pool of Reset-harvested spaces when one is available — a reset space is
// observably identical to a fresh one, see vmm.AddressSpace.Reset).
func (k *Kernel) NewTask(name string) *Task {
	id := uint32(len(k.tasks) + 1)
	var as *vmm.AddressSpace
	if n := len(k.asPool); n > 0 {
		as = k.asPool[n-1]
		k.asPool[n-1] = nil
		k.asPool = k.asPool[:n-1]
		as.ID = id
	} else {
		as = vmm.NewAddressSpace(id)
	}
	t := &Task{Name: name, AS: as}
	k.tasks = append(k.tasks, t)
	return t
}

// Reset returns the kernel to its just-booted state — no tasks, all memory
// free, zeroed op counters, no shootdown hook — while retaining allocated
// bookkeeping for reuse: the phys bitsets and chunk arrays, the buddy free
// lists, and each dead task's address space
// (harvested into the pool NewTask draws from, with its page-table node
// arenas intact). A reset kernel is observably identical to a freshly
// booted one; the machine pool (internal/sim) relies on that equivalence
// to reuse kernels across runs, and it is pinned by the run-twice
// determinism tests. Tasks are harvested last first, so NewTask, which
// takes the most recently harvested space, gives the k-th task after a
// Reset the k-th task's space: each warm arena keeps its role (a run's
// page cache, its workload), and no arena grows to another role's size.
func (k *Kernel) Reset() {
	for i := len(k.tasks) - 1; i >= 0; i-- {
		k.tasks[i].AS.Reset()
		k.asPool = append(k.asPool, k.tasks[i].AS)
	}
	clear(k.tasks)
	k.tasks = k.tasks[:0]
	k.Shootdown = nil
	k.Ops = OpStats{}
	k.Mem.Reset()
	k.Buddy.Reset()
}

// mustBeReset panics unless k is in the state Reset leaves: no tasks and
// all memory free.
func (k *Kernel) mustBeReset(op string) {
	if k.Mem.FreeFrames() != k.Mem.Frames() || len(k.tasks) != 0 {
		panic("kernel: " + op + " of a kernel that is not Reset")
	}
}

// TaskByID returns the task whose address space has the given ID.
func (k *Kernel) TaskByID(id uint32) (*Task, bool) {
	if id == 0 || int(id) > len(k.tasks) {
		return nil, false
	}
	return k.tasks[id-1], true
}

// Tasks returns all live tasks in address-space-ID (creation) order, so
// that anything iterating tasks — the invariant auditor's violation
// reports in particular — is deterministic. The slice is the kernel's own:
// the caller must not modify it, and it is valid until the next NewTask or
// Reset.
func (k *Kernel) Tasks() []*Task { return k.tasks[:len(k.tasks):len(k.tasks)] }

// AllocMapped allocates a physical page of the given size and maps it at va
// in t's address space, registering the reverse map. It returns the head
// PFN. On allocation failure it returns buddy.ErrNoMemory without touching
// the page table.
func (k *Kernel) AllocMapped(t *Task, va uint64, size units.PageSize) (uint64, error) {
	pfn, err := k.Buddy.Alloc(size.Order(), false)
	if err != nil {
		return 0, err
	}
	if err := k.mapOwned(t, va, pfn, size); err != nil {
		k.Buddy.Free(pfn, size.Order())
		return 0, err
	}
	return pfn, nil
}

// MapSpecific maps va to an already-allocated frame range (used by the
// zero-fill pool, which pre-allocates and pre-zeroes 1GB chunks, and by
// promotion, which allocates its target before tearing down old mappings).
func (k *Kernel) MapSpecific(t *Task, va, pfn uint64, size units.PageSize) error {
	return k.mapOwned(t, va, pfn, size)
}

func (k *Kernel) mapOwned(t *Task, va, pfn uint64, size units.PageSize) error {
	if err := t.AS.PT.Map(va, pfn, size); err != nil {
		return err
	}
	k.Mem.SetOwner(pfn, phys.Owner{Space: t.AS.ID, VA: va, Size: size})
	k.Ops.Maps++
	return nil
}

// MapRun maps count already-allocated 4KB frames at consecutive VAs,
// va+j*4KB → pfn+j, and returns how many it mapped. Its effect is exactly
// MapSpecific(t, va+j*4KB, pfn+j, units.Size4K) for j = 0, 1, … up to
// count or the first error, which it returns; it descends the page table
// once per leaf table instead of once per page, and registers the owners
// with one pass over each reverse-map leaf (phys.SetOwners4K). The
// fragmenter commits the page cache's surviving runs with it, and
// fault-around its runs of 4KB faults.
func (k *Kernel) MapRun(t *Task, va, pfn, count uint64) (uint64, error) {
	n, err := t.AS.PT.MapRun(va, pfn, count)
	k.Mem.SetOwners4K(pfn, n, phys.Owner{Space: t.AS.ID, VA: va, Size: units.Size4K})
	k.Ops.Maps += n
	return n, err
}

// UnmapFree removes the mapping of the given size at va and returns its
// frames to the buddy.
func (k *Kernel) UnmapFree(t *Task, va uint64, size units.PageSize) error {
	pfn, err := t.AS.PT.Unmap(va, size)
	if err != nil {
		return err
	}
	k.Mem.ClearOwner(pfn)
	k.Buddy.Free(pfn, size.Order())
	k.shootdown(t, va, 1, size)
	k.Ops.Unmaps++
	return nil
}

// UnmapRangeKeep tears down every leaf mapping wholly inside [lo, hi) in
// one page-table pass (pagetable.UnmapRuns), keeping the frames allocated.
// For each run of pages cleared from one table, in ascending VA order, it
// clears their owners, shoots the whole run down with one call and counts
// its unmaps, then invokes fn. The observable effect is exactly that of
// unmapping the range's mappings one at a time in ascending VA order,
// keeping their frames: the owner clears keep their order, the counts are
// sums, and a run's shootdown covers exactly its pages.
func (k *Kernel) UnmapRangeKeep(t *Task, lo, hi uint64, fn func(pagetable.Run)) {
	t.AS.PT.UnmapRuns(lo, hi, func(r pagetable.Run) {
		k.Mem.ClearOwners(r.PFNs)
		n := uint64(len(r.PFNs))
		k.shootdown(t, r.VA, n, r.Size)
		k.Ops.Unmaps += n
		fn(r)
	})
}

// MovePage is MoveRun of one page: it repoints the mapping at va to newPFN
// and returns the old head frame, still allocated and ownerless.
func (k *Kernel) MovePage(t *Task, va uint64, size units.PageSize, newPFN uint64) (uint64, error) {
	old, err := k.MoveRun(t, va, size, []uint64{newPFN})
	if err != nil {
		return 0, err
	}
	return old[0], nil
}

// MoveRun repoints the len(dests) mappings of the given size at va,
// va+size, … from their current frames to dests (already allocated by the
// caller) and returns their old head frames, in a buffer the kernel reuses
// until its next MoveRun. The old frames stay allocated, with no owner:
// the caller frees them, which lets compaction release a block's sources
// in one batch. The page table is descended once per node
// (pagetable.ReplaceRun), each reverse-map entry moves to its new frame
// (phys.MoveOwners), the run is shot down with one call and counted as
// len(dests) moves. The effect is exactly that of moving the pages one at
// a time in VA order, up to the first page not mapped at that size: its
// error is returned with the frames moved before it. This is the
// page-table half of a compaction move; the caller accounts the data copy.
func (k *Kernel) MoveRun(t *Task, va uint64, size units.PageSize, dests []uint64) ([]uint64, error) {
	k.movePFNs = phys.Resized(k.movePFNs, len(dests))
	n, err := t.AS.PT.ReplaceRun(va, size, dests, k.movePFNs)
	old := k.movePFNs[:n]
	if n > 0 {
		k.Mem.MoveOwners(old, dests[:n])
		k.shootdown(t, va, uint64(n), size)
		k.Ops.Moves += uint64(n)
	}
	if err != nil {
		return old, fmt.Errorf("kernel: MoveRun: no %v mapping at %#x", size, va+uint64(n)*size.Bytes())
	}
	return old, nil
}

// ExchangeFrames swaps the physical frames behind two same-size mappings
// (possibly in different tasks). Neither data copy nor frame free occurs:
// this is exactly the gPA→hPA exchange of Trident_pv (Figure 8c), applied
// here to whatever layer's page table the kernel manages.
func (k *Kernel) ExchangeFrames(t1 *Task, va1 uint64, t2 *Task, va2 uint64, size units.PageSize) error {
	m1, ok1 := t1.AS.PT.Lookup(va1)
	m2, ok2 := t2.AS.PT.Lookup(va2)
	if !ok1 || !ok2 || m1.Size != size || m2.Size != size || m1.VA != va1 || m2.VA != va2 {
		return fmt.Errorf("kernel: ExchangeFrames: mappings unsuitable")
	}
	if err := t1.AS.PT.Replace(va1, size, m2.PFN); err != nil {
		return err
	}
	if err := t2.AS.PT.Replace(va2, size, m1.PFN); err != nil {
		// Roll back.
		if rbErr := t1.AS.PT.Replace(va1, size, m1.PFN); rbErr != nil {
			return fmt.Errorf("kernel: exchange rollback at %#x failed: %v (after: %w)", va1, rbErr, err)
		}
		return err
	}
	k.Mem.ClearOwner(m1.PFN)
	k.Mem.ClearOwner(m2.PFN)
	k.Mem.SetOwner(m2.PFN, phys.Owner{Space: t1.AS.ID, VA: va1, Size: size})
	k.Mem.SetOwner(m1.PFN, phys.Owner{Space: t2.AS.ID, VA: va2, Size: size})
	k.shootdown(t1, va1, 1, size)
	k.shootdown(t2, va2, 1, size)
	k.Ops.Exchanges++
	return nil
}

// UnmapRange tears down every mapping intersecting [lo, hi), freeing the
// frames. Huge mappings straddling the boundary are demoted until the
// pieces inside the range can be freed exactly (what munmap does when a THP
// page straddles the unmapped region). The pieces are then torn down by
// UnmapRangeKeep and their frames freed in one batch: the effect is
// exactly UnmapFree on each mapping inside the range in ascending VA
// order. A non-nil error (a failed demotion) means the range is partially
// demoted and the address space should be treated as suspect.
func (k *Kernel) UnmapRange(t *Task, lo, hi uint64) error {
	hi = min(hi, pagetable.MaxVA)
	if lo >= hi {
		return nil
	}
	for {
		va, found := straddler(t.AS.PT, lo, hi)
		if !found {
			break
		}
		if err := k.DemotePage(t, va); err != nil {
			return fmt.Errorf("kernel: UnmapRange demote at %#x: %w", va, err)
		}
	}
	frees := k.Buddy.Batch()
	k.UnmapRangeKeep(t, lo, hi, func(r pagetable.Run) {
		for _, pfn := range r.PFNs {
			frees.Add(pfn, r.Size.Frames())
		}
	})
	frees.Flush()
	return nil
}

// straddler returns the head of the lowest mapping that intersects
// [lo, hi) without lying wholly inside it. Such a mapping covers lo or
// hi-1, so two lookups find it.
func straddler(pt *pagetable.Table, lo, hi uint64) (uint64, bool) {
	for _, va := range [2]uint64{lo, hi - 1} {
		if m, ok := pt.Lookup(va); ok && (m.VA < lo || m.VA+m.Size.Bytes() > hi) {
			return m.VA, true
		}
	}
	return 0, false
}

// DemotePage splits the huge mapping at va into 512 mappings of the next
// smaller size over the same frames, fixing up the reverse map. It is the
// mechanism behind HawkEye-style bloat recovery (§7: "demoting large pages
// and de-duplicating zero-filled small pages").
func (k *Kernel) DemotePage(t *Task, va uint64) error {
	m, ok := t.AS.PT.Lookup(va)
	if !ok || m.Size == units.Size4K || m.VA != va {
		return fmt.Errorf("kernel: DemotePage: no huge mapping headed at %#x", va)
	}
	sub := units.Size2M
	if m.Size == units.Size2M {
		sub = units.Size4K
	}
	k.Mem.ClearOwner(m.PFN)
	if err := t.AS.PT.Demote(va); err != nil {
		// Restore the owner we just cleared.
		k.Mem.SetOwner(m.PFN, phys.Owner{Space: t.AS.ID, VA: va, Size: m.Size})
		return err
	}
	for i := uint64(0); i < 512; i++ {
		k.Mem.SetOwner(m.PFN+i*sub.Frames(), phys.Owner{
			Space: t.AS.ID,
			VA:    va + i*sub.Bytes(),
			Size:  sub,
		})
	}
	k.shootdown(t, va, 1, m.Size)
	k.Ops.Demotes++
	return nil
}

func (k *Kernel) shootdown(t *Task, va, n uint64, size units.PageSize) {
	if k.Shootdown != nil {
		k.Shootdown(t, va, n, size)
	}
}

// OwnerTask resolves a frame's owning task via the reverse map.
func (k *Kernel) OwnerTask(pfn uint64) (*Task, phys.Owner, uint64, bool) {
	o, head, ok := k.Mem.OwnerOf(pfn)
	if !ok {
		return nil, phys.Owner{}, 0, false
	}
	t, ok := k.TaskByID(o.Space)
	if !ok {
		return nil, phys.Owner{}, 0, false
	}
	return t, o, head, true
}
