package kernel

import (
	"fmt"

	"repro/internal/phys"
	"repro/internal/units"
)

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

// DropFilePage drops the page of file t cached at offset va from frame
// pfn and frees the frame, counting an unmap: the page-cache reclaim that
// FuzzKernelOpsAudit runs between AddFilePages and MoveRun.
func (k *Kernel) DropFilePage(t *Task, va, pfn uint64) error {
	if o, head, ok := k.Mem.OwnerOf(pfn); !ok || head != pfn || o != (phys.Owner{Space: t.AS.ID, VA: va, Size: units.Size4K}) {
		return fmt.Errorf("kernel: DropFilePage: %s caches no page at %#x in frame %d", t.Name, va, pfn)
	}
	k.Mem.ClearOwner(pfn)
	k.Buddy.Free(pfn, 0)
	t.Cached--
	k.Ops.Unmaps++
	return nil
}
