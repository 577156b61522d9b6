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
	"sort"

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

	tasks  map[uint32]*Task
	nextID uint32

	// Shootdown, if set, is invoked whenever a mapping is removed or
	// repointed so the simulation's TLBs can be invalidated. va/size are the
	// affected page.
	Shootdown func(t *Task, va uint64, size units.PageSize)

	// kernelAllocs tracks frames held by KernelAlloc's unmovable
	// allocations as a chunked per-frame array:
	// kernelAllocs[pfn>>kaChunkBits][pfn&(kaChunk-1)] is order+1 for the
	// head of a live kernel chunk, 0 otherwise. Being an array, it makes
	// ForEachKernelAlloc's iteration order deterministic (ascending PFN).
	// Chunks are allocated on first write: simulator runs never call
	// KernelAlloc (the fragmenter's unmovable objects bypass it, allocated
	// with Buddy.AllocSpecific directly), so Boot, Reset and audits pay
	// nothing for it there.
	kernelAllocs [][]uint8

	// Ops counts completed page-table operations since boot. The counters
	// are deterministic functions of the op stream (never of wall time),
	// cheap enough to keep always-on; the observability layer samples them
	// as per-batch deltas.
	Ops OpStats

	// asPool holds address spaces harvested (and Reset) by Kernel.Reset;
	// NewTask reuses them so a pooled kernel's next run populates into warm
	// page-table node arenas instead of re-allocating them.
	asPool []*vmm.AddressSpace
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
// arena: the phys bookkeeping, the one buddy allocator and the
// kernelAllocs chunk index are re-sized and re-flavoured in place (see
// phys.Memory.Boot and buddy.Allocator.Boot), touching only the
// difference. Either way the kernel is then observably identical to
// New(memBytes, maxOrder), which lets the machine pool (internal/sim)
// hand any parked kernel to a run of any memory size and flavour.
func (k *Kernel) Boot(memBytes uint64, maxOrder int) {
	if k.Mem == nil {
		k.Mem = phys.NewMemory(memBytes)
		k.Buddy = buddy.New(k.Mem, maxOrder)
		k.tasks = make(map[uint32]*Task)
	} else {
		k.mustBeReset("Boot")
		k.Mem.Boot(memBytes)
		k.Buddy.Boot(maxOrder)
	}
	k.kernelAllocs = phys.Resized(k.kernelAllocs, kaChunks(k.Mem.Frames()))
}

// kernelAllocs chunking: 1<<16 frames (256MB of physical memory) per chunk.
const (
	kaChunkBits = 16
	kaChunk     = 1 << kaChunkBits
)

func kaChunks(frames uint64) int { return int((frames + kaChunk - 1) >> kaChunkBits) }

// NewTask creates a process with an empty address space (drawn from the
// pool of Reset-harvested spaces when one is available — a reset space is
// observably identical to a fresh one, see vmm.AddressSpace.Reset).
func (k *Kernel) NewTask(name string) *Task {
	k.nextID++
	var as *vmm.AddressSpace
	if n := len(k.asPool); n > 0 {
		as = k.asPool[n-1]
		k.asPool[n-1] = nil
		k.asPool = k.asPool[:n-1]
		as.ID = k.nextID
	} else {
		as = vmm.NewAddressSpace(k.nextID)
	}
	t := &Task{Name: name, AS: as}
	k.tasks[k.nextID] = t
	return t
}

// Reset returns the kernel to its just-booted state — no tasks, all memory
// free, zeroed op counters, no shootdown hook — while retaining allocated
// bookkeeping for reuse: the phys bitsets and chunk arrays, the buddy free
// lists, the kernelAllocs chunks, and each dead task's address space
// (harvested into the pool NewTask draws from, with its page-table node
// arenas intact). A reset kernel is observably identical to a freshly
// booted one; the machine pool (internal/sim) relies on that equivalence
// to reuse kernels across runs, and it is pinned by the run-twice
// determinism tests. Tasks are harvested in creation order so pool order —
// hence which warm arena a future task gets — is deterministic.
func (k *Kernel) Reset() {
	for _, t := range k.Tasks() {
		t.AS.Reset()
		k.asPool = append(k.asPool, t.AS)
	}
	clear(k.tasks)
	k.nextID = 0
	k.Shootdown = nil
	for _, c := range k.kernelAllocs {
		clear(c)
	}
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
	t, ok := k.tasks[id]
	return t, ok
}

// Tasks returns all live tasks in address-space-ID (creation) order, so
// that anything iterating tasks — the invariant auditor's violation
// reports in particular — is deterministic.
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS.ID < out[j].AS.ID })
	return out
}

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
// once per leaf table instead of once per page. The fragmenter commits the
// page cache's surviving runs with it, and fault-around its runs of 4KB
// faults.
func (k *Kernel) MapRun(t *Task, va, pfn, count uint64) (uint64, error) {
	n, err := t.AS.PT.MapRun(va, pfn, count)
	for j := uint64(0); j < n; j++ {
		k.Mem.SetOwner(pfn+j, phys.Owner{Space: t.AS.ID, VA: va + j*units.Page4K, Size: units.Size4K})
	}
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
	k.shootdown(t, va, size)
	k.Ops.Unmaps++
	return nil
}

// UnmapKeep removes the mapping but keeps the frames allocated, returning
// the head PFN. Promotion uses this to tear down small mappings whose
// frames it then frees in bulk.
func (k *Kernel) UnmapKeep(t *Task, va uint64, size units.PageSize) (uint64, error) {
	pfn, err := t.AS.PT.Unmap(va, size)
	if err != nil {
		return 0, err
	}
	k.Mem.ClearOwner(pfn)
	k.shootdown(t, va, size)
	k.Ops.Unmaps++
	return pfn, nil
}

// UnmapRangeKeep tears down every leaf mapping wholly inside [lo, hi) in
// one page-table traversal, keeping the frames allocated. For each removed
// mapping, in ascending VA order, it performs UnmapKeep's per-page kernel
// bookkeeping (owner clear, shootdown, op count) and then invokes fn. The
// observable effect is exactly a sequence of UnmapKeep calls over the
// range's mappings in ascending VA order.
func (k *Kernel) UnmapRangeKeep(t *Task, lo, hi uint64, fn func(pagetable.Mapping)) {
	t.AS.PT.UnmapRange(lo, hi, func(m pagetable.Mapping) {
		k.Mem.ClearOwner(m.PFN)
		k.shootdown(t, m.VA, m.Size)
		k.Ops.Unmaps++
		fn(m)
	})
}

// MovePage repoints the mapping at va from its current frames to newPFN
// (already allocated by the caller), freeing the old frames. This is the
// page-table half of a compaction move; the caller accounts the data copy.
func (k *Kernel) MovePage(t *Task, va uint64, size units.PageSize, newPFN uint64) error {
	m, ok := t.AS.PT.Lookup(va)
	if !ok || m.Size != size || m.VA != va {
		return fmt.Errorf("kernel: MovePage: no %v mapping at %#x", size, va)
	}
	if err := t.AS.PT.Replace(va, size, newPFN); err != nil {
		return err
	}
	k.Mem.ClearOwner(m.PFN)
	k.Mem.SetOwner(newPFN, phys.Owner{Space: t.AS.ID, VA: va, Size: size})
	k.Buddy.Free(m.PFN, size.Order())
	k.shootdown(t, va, size)
	k.Ops.Moves++
	return nil
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
	k.shootdown(t1, va1, size)
	k.shootdown(t2, va2, size)
	k.Ops.Exchanges++
	return nil
}

// UnmapRange tears down every mapping intersecting [lo, hi), freeing the
// frames. Huge mappings straddling the boundary are demoted until the
// pieces inside the range can be freed exactly (what munmap does when a THP
// page straddles the unmapped region). A non-nil error means the range is
// partially unmapped and the address space should be treated as suspect.
func (k *Kernel) UnmapRange(t *Task, lo, hi uint64) error {
	for {
		var straddler uint64
		var found bool
		var inside []pagetable.Mapping
		t.AS.PT.ForEach(lo, hi, func(m pagetable.Mapping) bool {
			if m.VA < lo || m.VA+m.Size.Bytes() > hi {
				straddler, found = m.VA, true
				return false
			}
			inside = append(inside, m)
			return true
		})
		if found {
			if err := k.DemotePage(t, straddler); err != nil {
				return fmt.Errorf("kernel: UnmapRange demote at %#x: %w", straddler, err)
			}
			continue
		}
		for _, m := range inside {
			if err := k.UnmapFree(t, m.VA, m.Size); err != nil {
				return fmt.Errorf("kernel: UnmapRange free at %#x: %w", m.VA, err)
			}
		}
		return nil
	}
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
	k.shootdown(t, va, m.Size)
	k.Ops.Demotes++
	return nil
}

// KernelAlloc allocates an unmovable kernel chunk of the given order
// (inodes, DMA buffers, page-cache metadata — the objects that defeat
// compaction, §5.1.3). Returns the head PFN.
func (k *Kernel) KernelAlloc(order int) (uint64, error) {
	pfn, err := k.Buddy.Alloc(order, true)
	if err != nil {
		return 0, err
	}
	c := k.kernelAllocs[pfn>>kaChunkBits]
	if c == nil {
		c = make([]uint8, kaChunk)
		k.kernelAllocs[pfn>>kaChunkBits] = c
	}
	c[pfn&(kaChunk-1)] = uint8(order + 1)
	return pfn, nil
}

// KernelFree releases a kernel allocation made with KernelAlloc.
func (k *Kernel) KernelFree(pfn uint64) error {
	c := k.kernelAllocs[pfn>>kaChunkBits]
	if c == nil || c[pfn&(kaChunk-1)] == 0 {
		return fmt.Errorf("kernel: KernelFree of unknown pfn %d", pfn)
	}
	order := int(c[pfn&(kaChunk-1)]) - 1
	c[pfn&(kaChunk-1)] = 0
	k.Buddy.Free(pfn, order)
	return nil
}

// ForEachKernelAlloc visits every live kernel allocation as (head PFN,
// order), in ascending PFN order. Return false to stop early.
func (k *Kernel) ForEachKernelAlloc(fn func(pfn uint64, order int) bool) {
	for ci, c := range k.kernelAllocs {
		for i, enc := range c {
			if enc == 0 {
				continue
			}
			if !fn(uint64(ci)<<kaChunkBits|uint64(i), int(enc)-1) {
				return
			}
		}
	}
}

func (k *Kernel) shootdown(t *Task, va uint64, size units.PageSize) {
	if k.Shootdown != nil {
		k.Shootdown(t, va, size)
	}
}

// OwnerTask resolves a frame's owning task via the reverse map.
func (k *Kernel) OwnerTask(pfn uint64) (*Task, phys.Owner, uint64, bool) {
	o, head, ok := k.Mem.OwnerOf(pfn)
	if !ok {
		return nil, phys.Owner{}, 0, false
	}
	t, ok := k.tasks[o.Space]
	if !ok {
		return nil, phys.Owner{}, 0, false
	}
	return t, o, head, true
}
