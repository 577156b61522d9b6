package audit_test

import (
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/phys"
	"repro/internal/tlb"
	"repro/internal/units"
)

// machine builds a small kernel with one task mapping a page of each size,
// plus an unmovable kernel chunk — every structure the auditor
// cross-checks.
type machine struct {
	k                   *kernel.Kernel
	task                *kernel.Task
	va1G, va2M, va4K    uint64
	pfn1G, pfn2M, pfn4K uint64
}

func newMachine(t *testing.T) *machine {
	t.Helper()
	m := &machine{
		k:    kernel.New(2*units.Page1G, units.TridentMaxOrder),
		va1G: 1 * units.Page1G,
		va2M: 4 * units.Page1G,
		va4K: 5 * units.Page1G,
	}
	m.task = m.k.NewTask("app")
	var err error
	if m.pfn1G, err = m.k.AllocMapped(m.task, m.va1G, units.Size1G); err != nil {
		t.Fatal(err)
	}
	if m.pfn2M, err = m.k.AllocMapped(m.task, m.va2M, units.Size2M); err != nil {
		t.Fatal(err)
	}
	if m.pfn4K, err = m.k.AllocMapped(m.task, m.va4K, units.Size4K); err != nil {
		t.Fatal(err)
	}
	if _, err = m.k.Buddy.Alloc(3, true); err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *machine) check() error { return audit.Check(audit.Machine{K: m.k}) }

func wantViolation(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("corrupted machine passed the audit (want violation containing %q)", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("audit error lacks %q:\n%v", substr, err)
	}
}

func TestCleanMachinePasses(t *testing.T) {
	m := newMachine(t)
	if err := m.check(); err != nil {
		t.Fatalf("clean machine failed the audit: %v", err)
	}
}

// A page-table leaf whose reverse-map registration vanished (check 1).
func TestMissingOwnerDetected(t *testing.T) {
	m := newMachine(t)
	m.k.Mem.ClearOwner(m.pfn4K)
	wantViolation(t, m.check(), "no reverse-map owner")
}

// A reverse-map entry disagreeing with the page table (checks 1+2).
func TestWrongOwnerDetected(t *testing.T) {
	m := newMachine(t)
	m.k.Mem.ClearOwner(m.pfn2M)
	m.k.Mem.SetOwner(m.pfn2M, phys.Owner{Space: m.task.AS.ID, VA: m.va2M, Size: units.Size4K})
	wantViolation(t, m.check(), "page table disagrees")
}

// A frame marked allocated behind the buddy's back: the free lists and the
// allocation bitmap diverge (check 4).
func TestBuddyDivergenceDetected(t *testing.T) {
	m := newMachine(t)
	f := m.k.Mem.Frames() - 1
	if m.k.Mem.IsAllocated(f) {
		t.Fatalf("frame %d unexpectedly allocated", f)
	}
	m.k.Mem.MarkAllocated(f, 1, false)
	wantViolation(t, m.check(), "buddy free lists")
}

// A TLB entry surviving its mapping's teardown (check 5): with no shootdown
// wired, UnmapFree leaves the cached translation stale.
func TestStaleTLBDetected(t *testing.T) {
	m := newMachine(t)
	cfg := tlb.Skylake()
	mm := mmu.New(cfg)
	mm.Translate(m.task.AS.PT, nil, m.va4K, false)
	view := audit.TLBView{H: mm.TLB, Task: m.task}
	if err := audit.Check(audit.Machine{K: m.k, TLBs: []audit.TLBView{view}}); err != nil {
		t.Fatalf("live TLB entry flagged: %v", err)
	}
	if err := m.k.UnmapFree(m.task, m.va4K, units.Size4K); err != nil {
		t.Fatal(err)
	}
	err := audit.Check(audit.Machine{K: m.k, TLBs: []audit.TLBView{view}})
	wantViolation(t, err, "tlb(")
}

// Violations beyond the cap are counted, not listed, and the count is in
// the message.
func TestViolationCapTruncates(t *testing.T) {
	m := newMachine(t)
	base := uint64(8) * units.Page1G
	pfns := make([]uint64, 0, 20)
	for i := uint64(0); i < 20; i++ {
		pfn, err := m.k.AllocMapped(m.task, base+i*units.Page4K, units.Size4K)
		if err != nil {
			t.Fatal(err)
		}
		pfns = append(pfns, pfn)
	}
	for _, pfn := range pfns {
		m.k.Mem.ClearOwner(pfn)
	}
	err := m.check()
	if err == nil {
		t.Fatal("20 corruptions passed")
	}
	ae, ok := err.(*audit.Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(ae.Violations) != 16 || ae.Truncated != 4 {
		t.Fatalf("got %d violations, %d truncated; want 16 and 4", len(ae.Violations), ae.Truncated)
	}
	if !strings.Contains(ae.Error(), "20 violations") || !strings.Contains(ae.Error(), "first 16") {
		t.Fatalf("message lacks the totals:\n%v", ae)
	}
}
