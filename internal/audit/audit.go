// Package audit is the whole-machine invariant auditor: one Check walks
// every cross-module data structure the simulator keeps about the same
// physical memory — page tables, the reverse map, the allocation and
// unmovable bitmaps, the per-region counters, the buddy free lists and the
// TLBs — and verifies they tell one consistent story. It replaces "the run
// didn't panic" with "the machine is provably coherent", and is the oracle
// the chaos injector (internal/chaos) is verified against: after every
// injected failure the machine must still pass.
//
// The checks:
//
//  1. Every mapped leaf in every task's page table covers frames that are
//     allocated in phys, with the reverse map registering exactly that
//     (space, VA, size) at the leaf's head frame. A file (kernel.NewFile)
//     maps nothing.
//  2. Every reverse-map owner points back at a live task whose page table
//     maps that VA at that size onto that head frame (no dangling rmap).
//     An owner whose task is a file is a cached page instead: a 4KB page
//     at an offset inside the file's extent (its VMAs) that no other frame
//     claims, and the file's owners number its Cached pages.
//  3. The per-1GB-region Free/Unmovable counters match a recount of the
//     allocation/unmovable bitmaps, no free frame is marked unmovable, and
//     a Zeroed region is fully free. This recount is what covers unmovable
//     frames (the fragmenter's kernel objects, §5.1.3): an unmovable chunk
//     allocated or freed without its bits and counters agreeing fails it.
//  4. The buddy allocator's free lists exactly tile the free space, fully
//     coalesced: no free chunk below max order has a wholly free buddy
//     (delegated to buddy.CheckInvariants).
//  5. No TLB entry translates a VA its task no longer maps at that size
//     (the shootdown discipline held).
//  6. Machine-wide frame counts are self-consistent.
package audit

import (
	"fmt"
	"strings"

	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/tlb"
	"repro/internal/units"
)

// TLBView pairs a TLB hierarchy with the task whose address space its
// entries translate. For a virtualized run's combined gVA→hPA entries —
// which are tagged at the effective (min guest/host) page size — HostPT
// names the host table backing the guest's physical space, and the check
// recomputes the effective size the way mmu.Translate does when given a
// host table.
type TLBView struct {
	H    *tlb.Hierarchy
	Task *kernel.Task
	// HostPT is nil for native hierarchies.
	HostPT *pagetable.Table
}

// Machine bundles everything one coherence check spans. K is required;
// TLBs may be empty (check 5 is then skipped).
type Machine struct {
	K    *kernel.Kernel
	TLBs []TLBView
}

// maxViolations bounds how many individual violations one Error carries —
// enough to diagnose, without a megabyte of repeated lines when a bitmap is
// systematically off.
const maxViolations = 16

// Error reports an incoherent machine: each violation is one independently
// observed disagreement between two structures.
type Error struct {
	Violations []string
	// Truncated counts violations beyond the reporting cap.
	Truncated int
}

// Error implements error.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: machine incoherent (%d violations", len(e.Violations)+e.Truncated)
	if e.Truncated > 0 {
		fmt.Fprintf(&b, ", first %d shown", len(e.Violations))
	}
	b.WriteString("):")
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v)
	}
	return b.String()
}

// recorder accumulates violations up to the cap.
type recorder struct {
	e Error
}

func (r *recorder) add(format string, args ...any) {
	if len(r.e.Violations) >= maxViolations {
		r.e.Truncated++
		return
	}
	r.e.Violations = append(r.e.Violations, fmt.Sprintf(format, args...))
}

func (r *recorder) err() error {
	if len(r.e.Violations) == 0 {
		return nil
	}
	return &r.e
}

// Check runs the full audit and returns nil if the machine is coherent, or
// an *Error listing the violations. It only reads; the machine is unchanged.
func Check(m Machine) error {
	var r recorder
	tasks := sortedTasks(m.K)
	checkLeaves(m.K, tasks, &r)
	checkOwners(m.K, tasks, &r)
	checkRegions(m.K.Mem, &r)
	if err := m.K.Buddy.CheckInvariants(); err != nil {
		r.add("buddy free lists: %v", err)
	}
	for _, view := range m.TLBs {
		checkTLB(view, &r)
	}
	return r.err()
}

// sortedTasks returns the kernel's tasks for deterministic violation
// reports. kernel.Tasks now guarantees address-space-ID order itself.
func sortedTasks(k *kernel.Kernel) []*kernel.Task {
	return k.Tasks()
}

// checkLeaves verifies check 1: page-table leaves against phys allocation
// state and the reverse map.
func checkLeaves(k *kernel.Kernel, tasks []*kernel.Task, r *recorder) {
	mem := k.Mem
	for _, t := range tasks {
		t.AS.PT.ForEach(0, pagetable.MaxVA, func(m pagetable.Mapping) bool {
			if t.File {
				r.add("file %s: page table maps %v@%#x → pfn %d", t.Name, m.Size, m.VA, m.PFN)
				return true
			}
			frames := m.Size.Frames()
			if m.PFN+frames > mem.Frames() {
				r.add("task %s: leaf %v@%#x → pfn %d beyond physical memory", t.Name, m.Size, m.VA, m.PFN)
				return true
			}
			if got := mem.AllocatedInRange(m.PFN, frames); got != frames {
				r.add("task %s: leaf %v@%#x → pfn %d has %d/%d frames allocated", t.Name, m.Size, m.VA, m.PFN, got, frames)
			}
			o, head, ok := mem.OwnerOf(m.PFN)
			switch {
			case !ok:
				r.add("task %s: leaf %v@%#x → pfn %d has no reverse-map owner", t.Name, m.Size, m.VA, m.PFN)
			case head != m.PFN || o.Space != t.AS.ID || o.VA != m.VA || o.Size != m.Size:
				r.add("task %s: leaf %v@%#x → pfn %d owned by space %d va %#x size %v at head %d",
					t.Name, m.Size, m.VA, m.PFN, o.Space, o.VA, o.Size, head)
			}
			return true
		})
	}
}

// checkOwners verifies check 2: every reverse-map entry has a live mapping
// behind it, or is a page cached once in a file, and each file's owners
// number its cached pages.
func checkOwners(k *kernel.Kernel, tasks []*kernel.Task, r *recorder) {
	var cached map[uint32]*fileOffsets // by file space, built as files turn up
	k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
		t, ok := k.TaskByID(o.Space)
		if !ok {
			r.add("rmap: pfn %d owned by dead space %d", pfn, o.Space)
			return true
		}
		if t.File {
			if cached == nil {
				cached = map[uint32]*fileOffsets{}
			}
			checkFilePage(t, pfn, o, cached, r)
			return true
		}
		m, ok := t.AS.PT.Lookup(o.VA)
		if !ok || m.VA != o.VA || m.Size != o.Size || m.PFN != pfn {
			r.add("rmap: pfn %d claims %s maps %v@%#x, page table disagrees", pfn, t.Name, o.Size, o.VA)
		}
		return true
	})
	for _, t := range tasks {
		if !t.File {
			continue
		}
		var owners uint64
		if seen := cached[t.AS.ID]; seen != nil {
			owners = seen.owners
		}
		if owners != t.Cached {
			r.add("file %s: caches %d pages, the reverse map holds %d", t.Name, t.Cached, owners)
		}
	}
}

// fileOffsets holds one bit per 4KB offset of a file's extent, the span
// from its lowest VMA's start, set once a frame has claimed the offset,
// and counts the file's owners.
type fileOffsets struct {
	lo     uint64
	bits   []uint64
	owners uint64
}

// checkFilePage verifies check 2 for pfn, whose owner o is a page of file
// t, and marks o's offset claimed in cached.
func checkFilePage(t *kernel.Task, pfn uint64, o phys.Owner, cached map[uint32]*fileOffsets, r *recorder) {
	if o.Size != units.Size4K {
		r.add("rmap: pfn %d claims a %v page of file %s, which caches 4KB pages", pfn, o.Size, t.Name)
		return
	}
	if _, ok := t.AS.FindVMA(o.VA); !ok {
		r.add("rmap: pfn %d claims offset %#x of file %s, outside its extent", pfn, o.VA, t.Name)
		return
	}
	seen := cached[o.Space]
	if seen == nil {
		vmas := t.AS.VMAs()
		lo, hi := vmas[0].Start, vmas[len(vmas)-1].End
		seen = &fileOffsets{lo: lo, bits: make([]uint64, ((hi-lo)/units.Page4K+63)/64)}
		cached[o.Space] = seen
	}
	seen.owners++
	i := (o.VA - seen.lo) / units.Page4K
	if seen.bits[i/64]&(1<<(i%64)) != 0 {
		r.add("rmap: pfn %d claims offset %#x of file %s, which another frame caches", pfn, o.VA, t.Name)
	}
	seen.bits[i/64] |= 1 << (i % 64)
}

// checkRegions verifies check 3 and 6: region counters against a bitmap
// recount, and the zeroed-implies-free rule.
func checkRegions(mem *phys.Memory, r *recorder) {
	var freeTotal, allocTotal uint64
	for reg := uint64(0); reg < mem.NumRegions(); reg++ {
		base := reg * units.FramesPerRegion
		var free, unmovable uint64
		for f := base; f < base+units.FramesPerRegion; f++ {
			if mem.IsAllocated(f) {
				if mem.IsUnmovable(f) {
					unmovable++
				}
			} else {
				free++
				if mem.IsUnmovable(f) {
					r.add("region %d: free frame %d marked unmovable", reg, f)
				}
			}
		}
		st := mem.Region(reg)
		if st.Free != free || st.Unmovable != unmovable {
			r.add("region %d: counters free=%d unmovable=%d, bitmaps say free=%d unmovable=%d",
				reg, st.Free, st.Unmovable, free, unmovable)
		}
		if st.Zeroed && free != units.FramesPerRegion {
			r.add("region %d: zeroed but only %d/%d frames free", reg, free, units.FramesPerRegion)
		}
		freeTotal += free
		allocTotal += units.FramesPerRegion - free
	}
	if mem.FreeFrames() != freeTotal || mem.AllocatedFrames() != allocTotal {
		r.add("machine counters: free=%d allocated=%d, bitmap says free=%d allocated=%d",
			mem.FreeFrames(), mem.AllocatedFrames(), freeTotal, allocTotal)
	}
}

// checkTLB verifies check 5: every cached translation still exists in the
// task's page table at the cached size (for nested views, at the effective
// min of the guest and host sizes backing that address).
func checkTLB(view TLBView, r *recorder) {
	view.H.ForEachEntry(func(va uint64, size units.PageSize) bool {
		m, ok := view.Task.AS.PT.Lookup(va)
		if view.HostPT == nil {
			if !ok || m.Size != size || m.VA != va {
				r.add("tlb(%s): stale %v entry at %#x (page table disagrees)", view.Task.Name, size, va)
			}
			return true
		}
		if !ok {
			r.add("tlb(%s): stale nested %v entry at %#x (guest page unmapped)", view.Task.Name, size, va)
			return true
		}
		gpa := units.FrameAddr(m.PFN) + (va - m.VA)
		hm, ok := view.HostPT.Lookup(gpa)
		if !ok {
			r.add("tlb(%s): nested %v entry at %#x → gPA %#x unbacked by host", view.Task.Name, size, va, gpa)
			return true
		}
		eff := m.Size
		if hm.Size < eff {
			eff = hm.Size
		}
		if eff != size {
			r.add("tlb(%s): nested entry at %#x cached at %v but effective size is %v (guest %v, host %v)",
				view.Task.Name, va, size, eff, m.Size, hm.Size)
		}
		return true
	})
}
