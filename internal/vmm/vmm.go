// Package vmm manages virtual address spaces: VMAs (virtual memory areas),
// a first-fit VA allocator whose holes model virtual-address fragmentation,
// and the 1GB/2MB mappability analysis of the paper's §4.3.
//
// A virtual address range is mappable by a large page only if it is at least
// as long as the page and aligned to the page's boundary; applications that
// allocate, de-allocate and re-allocate memory (e.g. Graph500) fragment
// their address space and lose 1GB-mappability while remaining 2MB-mappable
// — the gap plotted in Figure 3.
package vmm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/pagetable"
	"repro/internal/units"
)

// Kind classifies a VMA.
type Kind int

// VMA kinds. Stack VMAs matter because libHugetlbfs cannot back a stack
// with large pages, while THP/Trident can (§4.1, the Redis observation).
const (
	KindAnon Kind = iota
	KindStack
)

func (k Kind) String() string {
	if k == KindStack {
		return "stack"
	}
	return "anon"
}

// VMA is one contiguous virtual memory area.
type VMA struct {
	Start uint64 // inclusive
	End   uint64 // exclusive
	Kind  Kind
}

// Size returns the VMA's length in bytes.
func (v VMA) Size() uint64 { return v.End - v.Start }

// Layout constants for user address spaces.
const (
	// MmapBase is where anonymous mappings start.
	MmapBase = uint64(64) * units.GiB
	// MmapLimit is the exclusive upper bound for anonymous mappings.
	MmapLimit = pagetable.MaxVA - units.GiB
	// StackTop is the highest stack address (stacks grow down from here).
	StackTop = pagetable.MaxVA - units.Page2M
)

// Errors returned by address-space operations.
var (
	ErrNoVirtualSpace = errors.New("vmm: no virtual address range available")
	ErrBadUnmap       = errors.New("vmm: unmap range does not match a mapped area")
)

// AddressSpace is one process's (or one guest's) virtual address space.
type AddressSpace struct {
	// ID identifies this space in phys.Owner records; assigned by the kernel.
	ID uint32
	// PT is the space's page table.
	PT *pagetable.Table

	vmas []VMA // sorted by Start, non-overlapping
	// lastFind remembers which VMA the previous FindVMA returned. Faults
	// cluster, so that VMA is checked before the binary search; a hit is
	// always correct even across mutations, since any current VMA that
	// contains va is — by non-overlap — the VMA containing va.
	lastFind int
	// nextHint implements the bump-then-first-fit allocation policy.
	nextHint uint64
}

// NewAddressSpace creates an empty address space with the given ID.
func NewAddressSpace(id uint32) *AddressSpace {
	return &AddressSpace{ID: id, PT: pagetable.New(), nextHint: MmapBase}
}

// Reset returns the address space to its post-NewAddressSpace state —
// empty VMA list, hint at MmapBase, empty page table — while keeping the
// page table's reclaimed node pools warm. The caller assigns a fresh ID
// before reuse (the kernel's task pool does). A reset space is observably
// identical to a fresh one.
func (as *AddressSpace) Reset() {
	as.PT.Reset()
	as.vmas = as.vmas[:0]
	as.nextHint = MmapBase
}

// VMAs returns a copy of the current VMA list, sorted by start address.
func (as *AddressSpace) VMAs() []VMA { return append([]VMA(nil), as.vmas...) }

// TotalVMABytes returns the total size of all VMAs.
func (as *AddressSpace) TotalVMABytes() uint64 {
	var sum uint64
	for _, v := range as.vmas {
		sum += v.Size()
	}
	return sum
}

// MMap reserves size bytes (4KB-multiple) of virtual address space and
// returns the start address. Like Linux, it first tries to extend past the
// previous mapping (keeping the address space dense and large-page friendly
// for applications that allocate in big chunks) and falls back to first-fit
// in earlier holes — which is how re-allocation after frees produces the
// virtual fragmentation of Figure 3.
func (as *AddressSpace) MMap(size uint64, kind Kind) (uint64, error) {
	if size == 0 || size%units.Page4K != 0 {
		return 0, fmt.Errorf("vmm: mmap size %d not a positive 4KB multiple", size)
	}
	if va, ok := as.fit(as.nextHint, MmapLimit, size); ok {
		as.insert(VMA{va, va + size, kind})
		as.nextHint = va + size
		return va, nil
	}
	if va, ok := as.fit(MmapBase, MmapLimit, size); ok {
		as.insert(VMA{va, va + size, kind})
		return va, nil
	}
	return 0, ErrNoVirtualSpace
}

// MMapAligned is MMap with a stronger alignment guarantee for the start
// address (used by workload models that pre-allocate huge-page-friendly
// arenas, mimicking allocators that mmap aligned segments).
func (as *AddressSpace) MMapAligned(size, align uint64, kind Kind) (uint64, error) {
	if size == 0 || size%units.Page4K != 0 || align == 0 || align%units.Page4K != 0 {
		return 0, fmt.Errorf("vmm: bad aligned mmap size=%d align=%d", size, align)
	}
	hint := units.AlignUp(as.nextHint, align)
	if va, ok := as.fitAligned(hint, MmapLimit, size, align); ok {
		as.insert(VMA{va, va + size, kind})
		as.nextHint = va + size
		return va, nil
	}
	if va, ok := as.fitAligned(MmapBase, MmapLimit, size, align); ok {
		as.insert(VMA{va, va + size, kind})
		return va, nil
	}
	return 0, ErrNoVirtualSpace
}

// MMapFixed creates a VMA at an exact address (MAP_FIXED). The hypervisor
// layer uses it to give a VM's host-side task a VMA whose virtual addresses
// are the guest-physical addresses.
func (as *AddressSpace) MMapFixed(start, size uint64, kind Kind) error {
	if size == 0 || size%units.Page4K != 0 || start%units.Page4K != 0 {
		return fmt.Errorf("vmm: bad fixed mmap start=%#x size=%d", start, size)
	}
	if start+size > pagetable.MaxVA {
		return ErrNoVirtualSpace
	}
	if as.overlapsAny(start, start+size) {
		return ErrNoVirtualSpace
	}
	as.insert(VMA{start, start + size, kind})
	return nil
}

// MMapStack creates the stack VMA just below StackTop.
func (as *AddressSpace) MMapStack(size uint64) (uint64, error) {
	if size == 0 || size%units.Page4K != 0 {
		return 0, fmt.Errorf("vmm: bad stack size %d", size)
	}
	start := StackTop - size
	if as.overlapsAny(start, StackTop) {
		return 0, ErrNoVirtualSpace
	}
	as.insert(VMA{start, StackTop, KindStack})
	return start, nil
}

// MUnmap removes [va, va+size) from the VMA list, splitting VMAs as needed.
// All leaf mappings in the range must have been unmapped from the page
// table by the caller (the kernel layer does this, releasing frames).
//
// The list is edited in place: the VMAs overlapping the range form one
// index range [i, j), replaced by what survives of its two ends.
// Population's gap and churn loops unmap once per piece, so a list rebuilt
// per call would make garbage quadratic in the VMA count.
func (as *AddressSpace) MUnmap(va, size uint64) error {
	if size == 0 || size%units.Page4K != 0 || va%units.Page4K != 0 {
		return fmt.Errorf("vmm: bad munmap va=%#x size=%d", va, size)
	}
	end := va + size
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	j := i
	covered := uint64(0)
	for ; j < len(as.vmas) && as.vmas[j].Start < end; j++ {
		v := as.vmas[j]
		covered += min(v.End, end) - max(v.Start, va)
	}
	if covered != size {
		return ErrBadUnmap
	}
	var rest [2]VMA
	n := 0
	if first := as.vmas[i]; first.Start < va {
		rest[n] = VMA{first.Start, va, first.Kind}
		n++
	}
	if last := as.vmas[j-1]; last.End > end {
		rest[n] = VMA{end, last.End, last.Kind}
		n++
	}
	as.vmas = slices.Replace(as.vmas, i, j, rest[:n]...)
	return nil
}

// FindVMA returns the VMA containing va.
func (as *AddressSpace) FindVMA(va uint64) (VMA, bool) {
	if j := as.lastFind; j < len(as.vmas) {
		if v := as.vmas[j]; v.Start <= va && va < v.End {
			return v, true
		}
	}
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > va })
	if i < len(as.vmas) && as.vmas[i].Start <= va {
		as.lastFind = i
		return as.vmas[i], true
	}
	return VMA{}, false
}

// MappableBytes returns the number of allocated virtual bytes that are
// mappable with pages of the given size: the sum over VMAs of the aligned
// spans fully contained in each VMA. For Size4K this is simply the total
// VMA bytes. This is the quantity plotted in Figure 3.
func (as *AddressSpace) MappableBytes(size units.PageSize) uint64 {
	if size == units.Size4K {
		return as.TotalVMABytes()
	}
	ps := size.Bytes()
	var sum uint64
	for _, v := range as.vmas {
		lo := units.AlignUp(v.Start, ps)
		hi := units.Align(v.End, ps)
		if hi > lo {
			sum += hi - lo
		}
	}
	return sum
}

// ForEachAligned visits the start address of every size-aligned page-sized
// span fully contained in a VMA, in ascending order. fn returning false
// stops the iteration.
func (as *AddressSpace) ForEachAligned(size units.PageSize, fn func(va uint64, kind Kind) bool) {
	ps := size.Bytes()
	for _, v := range as.vmas {
		lo := units.AlignUp(v.Start, ps)
		hi := units.Align(v.End, ps)
		for va := lo; va < hi; va += ps {
			if !fn(va, v.Kind) {
				return
			}
		}
	}
}

// AlignedRangeAt returns the start of the size-aligned span containing va if
// that whole span lies within a single VMA — the page-fault handler's test
// for "is this fault in a 1GB-mappable (or 2MB-mappable) range" (§5.1.2).
func (as *AddressSpace) AlignedRangeAt(va uint64, size units.PageSize) (uint64, bool) {
	v, ok := as.FindVMA(va)
	if !ok {
		return 0, false
	}
	start := units.Align(va, size.Bytes())
	if start >= v.Start && start+size.Bytes() <= v.End {
		return start, true
	}
	return 0, false
}

func (as *AddressSpace) fit(from, to, size uint64) (uint64, bool) {
	return as.fitAligned(from, to, size, units.Page4K)
}

// fitAligned finds the lowest aligned gap of at least size bytes in
// [from, to) not overlapping any VMA.
func (as *AddressSpace) fitAligned(from, to, size, align uint64) (uint64, bool) {
	pos := units.AlignUp(from, align)
	for _, v := range as.vmas {
		if v.End <= pos {
			continue
		}
		if v.Start >= to {
			break
		}
		if v.Start >= pos+size {
			return pos, true
		}
		if v.End > pos {
			pos = units.AlignUp(v.End, align)
		}
	}
	if pos+size <= to {
		return pos, true
	}
	return 0, false
}

func (as *AddressSpace) overlapsAny(lo, hi uint64) bool {
	for _, v := range as.vmas {
		if v.Start < hi && lo < v.End {
			return true
		}
	}
	return false
}

func (as *AddressSpace) insert(nv VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= nv.Start })
	as.vmas = append(as.vmas, VMA{})
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = nv
	// Merge with identical-kind neighbours to mimic Linux VMA merging, which
	// is what makes a sequence of adjacent mmaps 1GB-mappable.
	as.mergeAround(i)
}

func (as *AddressSpace) mergeAround(i int) {
	// Merge with next.
	if i+1 < len(as.vmas) && as.vmas[i].End == as.vmas[i+1].Start && as.vmas[i].Kind == as.vmas[i+1].Kind {
		as.vmas[i].End = as.vmas[i+1].End
		as.vmas = append(as.vmas[:i+1], as.vmas[i+2:]...)
	}
	// Merge with previous.
	if i > 0 && as.vmas[i-1].End == as.vmas[i].Start && as.vmas[i-1].Kind == as.vmas[i].Kind {
		as.vmas[i-1].End = as.vmas[i].End
		as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	}
}
