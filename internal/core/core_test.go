package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/units"
	"repro/internal/vmm"
)

func newSys(t *testing.T, gb uint64, v Variant) (*System, *kernel.Task) {
	t.Helper()
	k := kernel.New(gb*units.Page1G, units.TridentMaxOrder)
	return New(k, v), k.NewTask("app")
}

func TestFullVariantEndToEnd(t *testing.T) {
	s, task := newSys(t, 4, VariantFull)
	s.Zero.Refill(4)
	va, err := task.AS.MMapAligned(2*units.Page1G, units.Page1G, vmm.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Fault.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size1G {
		t.Errorf("fault size = %v", r.Size)
	}
	if s.Khugepaged.Smart == nil {
		t.Error("full variant lacks smart compaction")
	}
}

func TestNo2MVariant(t *testing.T) {
	s, task := newSys(t, 2, VariantNo2M)
	// A 2MB-mappable, non-1GB-mappable VMA must be served with 4KB.
	va, err := task.AS.MMapAligned(8*units.Page2M, units.Page2M, vmm.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Fault.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size4K {
		t.Errorf("fault size = %v, want 4KB", r.Size)
	}
	if !s.Khugepaged.Disable2M {
		t.Error("promotion daemon allows 2MB")
	}
}

func TestNormalCompactionVariant(t *testing.T) {
	s, _ := newSys(t, 2, VariantNormalCompaction)
	if s.Khugepaged.Smart != nil {
		t.Error("NC variant has a smart compactor")
	}
	if s.Khugepaged.Normal1G == nil {
		t.Error("NC variant lacks a sequential 1GB compactor")
	}
	if !s.Khugepaged.Enable1G {
		t.Error("NC variant must still promote to 1GB")
	}
}

func TestIdlePromotes(t *testing.T) {
	s, task := newSys(t, 3, VariantFull)
	va, err := task.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	// Populate one 2MB span with 4KB mappings directly (the fault path
	// would map 2MB here; khugepaged is what must clean up 4KB leftovers).
	for i := uint64(0); i < 512; i++ {
		if _, err := s.K.AllocMapped(task, va+i*units.Page4K, units.Size4K); err != nil {
			t.Fatal(err)
		}
	}
	before := task.AS.PT.MappedPages(units.Size4K)
	if before == 0 {
		t.Fatal("setup: no 4KB pages")
	}
	// One idle step: zero-fill two free 1GB regions, then one unbudgeted
	// promotion pass.
	s.Zero.Refill(2)
	ns, err := s.Khugepaged.ScanTask(task, 0)
	if err != nil {
		t.Fatalf("ScanTask: %v", err)
	}
	if ns <= 0 {
		t.Error("idle did no work")
	}
	if s.Khugepaged.TotalNs() < ns {
		t.Error("daemon time below the idle pass's own time")
	}
	// The small range was promoted (to 2MB at least).
	if task.AS.PT.MappedPages(units.Size4K) >= before {
		t.Error("idle pass promoted nothing")
	}
}
