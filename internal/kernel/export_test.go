package kernel

import "repro/internal/units"

// UnmapKeep removes one mapping but keeps its frames allocated, returning
// the head PFN: UnmapRangeKeep's per-page reference, which
// FuzzUnmapRangeEquivalence compares it against one mapping at a time.
func (k *Kernel) UnmapKeep(t *Task, va uint64, size units.PageSize) (uint64, error) {
	pfn, err := t.AS.PT.Unmap(va, size)
	if err != nil {
		return 0, err
	}
	k.Mem.ClearOwner(pfn)
	k.shootdown(t, va, 1, size)
	k.Ops.Unmaps++
	return pfn, nil
}
