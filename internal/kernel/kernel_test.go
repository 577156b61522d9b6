package kernel

import (
	"slices"
	"testing"

	"repro/internal/buddy"
	"repro/internal/units"
	"repro/internal/vmm"
)

func newKernel(t *testing.T, gb uint64) *Kernel {
	t.Helper()
	return New(gb*units.Page1G, units.TridentMaxOrder)
}

func TestNewTaskIDs(t *testing.T) {
	k := newKernel(t, 1)
	t1 := k.NewTask("a")
	t2 := k.NewTask("b")
	if t1.AS.ID == t2.AS.ID || t1.AS.ID == 0 {
		t.Errorf("task IDs = %d, %d", t1.AS.ID, t2.AS.ID)
	}
	got, ok := k.TaskByID(t1.AS.ID)
	if !ok || got != t1 {
		t.Error("TaskByID failed")
	}
	if len(k.Tasks()) != 2 {
		t.Errorf("Tasks() = %d", len(k.Tasks()))
	}
}

// TestResetKeepsArenaRoles: after a Reset, the k-th NewTask gets the
// k-th task's address space, so each warm page-table arena serves the same
// role in the next run; spaces left over from a run with more tasks stay
// pooled behind them.
func TestResetKeepsArenaRoles(t *testing.T) {
	k := newKernel(t, 1)
	var spaces []*vmm.AddressSpace
	for _, name := range []string{"cache", "workload", "extra"} {
		spaces = append(spaces, k.NewTask(name).AS)
	}
	k.Reset()
	for i, name := range []string{"cache", "workload"} {
		if as := k.NewTask(name).AS; as != spaces[i] {
			t.Errorf("task %d after Reset got task %d's space", i+1, slices.Index(spaces, as)+1)
		}
	}
	k.Reset()
	for i, name := range []string{"cache", "workload", "extra"} {
		if as := k.NewTask(name).AS; as != spaces[i] {
			t.Errorf("second Reset: task %d got task %d's space", i+1, slices.Index(spaces, as)+1)
		}
	}
}

func TestAllocMappedRoundtrip(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	va, err := task.AS.MMap(units.Page2M, vmm.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	pfn, err := k.AllocMapped(task, va, units.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := task.AS.PT.Lookup(va)
	if !ok || m.PFN != pfn || m.Size != units.Size2M {
		t.Fatalf("mapping = %+v", m)
	}
	// Reverse map resolves.
	owner, o, head, ok := k.OwnerTask(pfn + 5)
	if !ok || owner != task || head != pfn || o.VA != va {
		t.Fatalf("OwnerTask = %v %+v %d %v", owner, o, head, ok)
	}
	if err := k.UnmapFree(task, va, units.Size2M); err != nil {
		t.Fatal(err)
	}
	if k.Mem.AllocatedFrames() != 0 {
		t.Error("frames leaked after UnmapFree")
	}
	if _, _, _, ok := k.OwnerTask(pfn); ok {
		t.Error("owner survived UnmapFree")
	}
}

func TestAllocMappedNoMemory(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	if _, err := k.AllocMapped(task, 0, units.Size1G); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AllocMapped(task, units.Page1G, units.Size1G); err != buddy.ErrNoMemory {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
}

func TestAllocMappedOverlapRollsBack(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	if _, err := k.AllocMapped(task, 0, units.Size4K); err != nil {
		t.Fatal(err)
	}
	free := k.Mem.FreeFrames()
	if _, err := k.AllocMapped(task, 0, units.Size4K); err == nil {
		t.Fatal("overlapping map succeeded")
	}
	if k.Mem.FreeFrames() != free {
		t.Error("failed AllocMapped leaked frames")
	}
}

func TestUnmapKeep(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	pfn, err := k.AllocMapped(task, 0, units.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.UnmapKeep(task, 0, units.Size4K)
	if err != nil || got != pfn {
		t.Fatalf("UnmapKeep = %d, %v", got, err)
	}
	if !k.Mem.IsAllocated(pfn) {
		t.Error("UnmapKeep freed the frame")
	}
	k.Buddy.Free(pfn, 0)
}

func TestMovePage(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	oldPFN, err := k.AllocMapped(task, 0, units.Size4K)
	if err != nil {
		t.Fatal(err)
	}
	newPFN, err := k.Buddy.Alloc(0, false)
	if err != nil {
		t.Fatal(err)
	}
	var shot bool
	k.Shootdown = func(tt *Task, va, n uint64, size units.PageSize) { shot = n == 1 }
	old, err := k.MovePage(task, 0, units.Size4K, newPFN)
	if err != nil {
		t.Fatal(err)
	}
	if !shot {
		t.Error("MovePage did not shoot down TLBs")
	}
	m, _ := task.AS.PT.Lookup(0)
	if m.PFN != newPFN {
		t.Errorf("PFN after move = %d", m.PFN)
	}
	if old != oldPFN || !k.Mem.IsAllocated(oldPFN) {
		t.Errorf("MovePage returned old frame %d (allocated: %v), want %d still allocated", old, k.Mem.IsAllocated(oldPFN), oldPFN)
	}
	if _, _, _, ok := k.OwnerTask(oldPFN); ok {
		t.Error("old frame kept its owner")
	}
	if _, o, _, ok := k.OwnerTask(newPFN); !ok || o.VA != 0 {
		t.Error("owner not transferred")
	}
}

func TestMovePageErrors(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	if _, err := k.MovePage(task, 0, units.Size4K, 1); err == nil {
		t.Error("MovePage of unmapped va succeeded")
	}
	if _, err := k.AllocMapped(task, 0, units.Size2M); err != nil {
		t.Fatal(err)
	}
	// Wrong size.
	if _, err := k.MovePage(task, 0, units.Size4K, 1); err == nil {
		t.Error("MovePage with wrong size succeeded")
	}
	// Interior address (not the head).
	if _, err := k.MovePage(task, units.Page4K, units.Size2M, 1); err == nil {
		t.Error("MovePage at non-head va succeeded")
	}
}

// TestMoveRunStopsAtUnmappedPage pins MoveRun's partial move: across a
// leaf-table boundary, the pages before the first unmapped one move (page
// table, owners, one shootdown of exactly them, their move count) and
// their old frames come back, still allocated and ownerless; the rest are
// untouched.
func TestMoveRunStopsAtUnmappedPage(t *testing.T) {
	k := newKernel(t, 1)
	task := k.NewTask("p")
	const va = units.Page2M - 3*units.Page4K // pages 0-2 in one leaf table, 3-5 in the next
	src, err := k.Buddy.Alloc(3, false)
	if err != nil {
		t.Fatal(err)
	}
	for j := uint64(0); j < 6; j++ {
		if j != 4 {
			if err := k.MapSpecific(task, va+j*units.Page4K, src+j, units.Size4K); err != nil {
				t.Fatal(err)
			}
		}
	}
	dst, err := k.Buddy.Alloc(3, false)
	if err != nil {
		t.Fatal(err)
	}
	var shot []uint64
	k.Shootdown = func(_ *Task, va, n uint64, size units.PageSize) { shot = append(shot, va, n) }
	dests := []uint64{dst, dst + 1, dst + 2, dst + 3, dst + 4, dst + 5}
	old, err := k.MoveRun(task, va, units.Size4K, dests)
	if err == nil || !slices.Equal(old, []uint64{src, src + 1, src + 2, src + 3}) {
		t.Fatalf("MoveRun = %v, %v; want frames %d-%d and an error at the unmapped page", old, err, src, src+3)
	}
	if !slices.Equal(shot, []uint64{va, 4}) || k.Ops.Moves != 4 {
		t.Fatalf("shootdowns %v, %d moves; want one shootdown of the 4 moved pages", shot, k.Ops.Moves)
	}
	for j := uint64(0); j < 6; j++ {
		m, ok := task.AS.PT.Lookup(va + j*units.Page4K)
		want := src + j
		if j < 4 {
			want = dst + j
		}
		if j != 4 && (!ok || m.PFN != want) {
			t.Errorf("page %d maps frame %d, want %d", j, m.PFN, want)
		}
		if _, o, _, ok := k.OwnerTask(want); j != 4 && (!ok || o.VA != va+j*units.Page4K) {
			t.Errorf("frame %d: owner %+v, %v; want page %d", want, o, ok, j)
		}
		if j < 4 && !k.Mem.IsAllocated(src+j) {
			t.Errorf("old frame %d freed", src+j)
		}
		if _, _, _, owned := k.OwnerTask(src + j); j < 4 && owned {
			t.Errorf("old frame %d kept its owner", src+j)
		}
	}
}

func TestExchangeFrames(t *testing.T) {
	k := newKernel(t, 2)
	t1 := k.NewTask("a")
	t2 := k.NewTask("b")
	p1, err := k.AllocMapped(t1, 0, units.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.AllocMapped(t2, units.Page2M*5, units.Size2M)
	if err != nil {
		t.Fatal(err)
	}
	free := k.Mem.FreeFrames()
	if err := k.ExchangeFrames(t1, 0, t2, units.Page2M*5, units.Size2M); err != nil {
		t.Fatal(err)
	}
	m1, _ := t1.AS.PT.Lookup(0)
	m2, _ := t2.AS.PT.Lookup(units.Page2M * 5)
	if m1.PFN != p2 || m2.PFN != p1 {
		t.Errorf("exchange: %d,%d want %d,%d", m1.PFN, m2.PFN, p2, p1)
	}
	if k.Mem.FreeFrames() != free {
		t.Error("exchange changed free-frame count")
	}
	// Owners swapped.
	if task, _, _, _ := k.OwnerTask(p1); task != t2 {
		t.Error("owner of p1 not transferred to t2")
	}
	if task, _, _, _ := k.OwnerTask(p2); task != t1 {
		t.Error("owner of p2 not transferred to t1")
	}
}

func TestExchangeFramesSizeMismatch(t *testing.T) {
	k := newKernel(t, 2)
	t1 := k.NewTask("a")
	if _, err := k.AllocMapped(t1, 0, units.Size2M); err != nil {
		t.Fatal(err)
	}
	if _, err := k.AllocMapped(t1, units.Page1G, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if err := k.ExchangeFrames(t1, 0, t1, units.Page1G, units.Size2M); err == nil {
		t.Error("size-mismatched exchange succeeded")
	}
}

// TestKernelAllocUnmovable: a kernel object's chunk — the unmovable
// allocation that defeats compaction (§5.1.3) — is marked unmovable frame
// by frame and in its region's counter, and freeing it clears both.
func TestKernelAllocUnmovable(t *testing.T) {
	k := newKernel(t, 1)
	pfn, err := k.Buddy.Alloc(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Mem.IsUnmovable(pfn) {
		t.Error("kernel alloc not unmovable")
	}
	if k.Mem.Region(units.RegionOfFrame(pfn)).Unmovable != 8 {
		t.Error("region unmovable counter wrong")
	}
	k.Buddy.Free(pfn, 3)
	if k.Mem.IsUnmovable(pfn) || k.Mem.UnmovableFrames() != 0 {
		t.Error("unmovable frames leaked")
	}
}

// TestBootRequiresReset: Boot refuses a booted kernel with live tasks or
// allocated memory.
func TestBootRequiresReset(t *testing.T) {
	k := newKernel(t, 1)
	k.NewTask("live")
	defer func() {
		if recover() == nil {
			t.Error("Boot of a kernel with a live task did not panic")
		}
	}()
	k.Boot(2*units.Page1G, units.TridentMaxOrder)
}
