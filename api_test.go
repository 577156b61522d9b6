package trident

import (
	"strings"
	"testing"
)

func TestWorkloadCatalogue(t *testing.T) {
	if len(Workloads()) != 12 {
		t.Fatalf("Workloads() = %d, want the 12 of Table 2", len(Workloads()))
	}
	if len(SensitiveWorkloads()) != 8 {
		t.Fatalf("SensitiveWorkloads() = %d, want the shaded eight", len(SensitiveWorkloads()))
	}
	if _, ok := WorkloadByName("Canneal"); !ok {
		t.Error("Canneal missing")
	}
}

func TestSkylakeTLBGeometry(t *testing.T) {
	cfg := SkylakeTLB()
	if n := cfg.L1[Size1G].Sets * cfg.L1[Size1G].Ways; n != 4 {
		t.Errorf("L1 1GB entries = %d, want 4 (Table 1)", n)
	}
	if n := cfg.L2Huge.Sets * cfg.L2Huge.Ways; n != 16 {
		t.Errorf("L2 1GB entries = %d, want 16 (Table 1)", n)
	}
}

// The repository's headline claim, via the public API: Trident beats THP on
// a 1GB-sensitive workload, and the win comes from 1GB mappings.
func TestPublicAPIHeadline(t *testing.T) {
	gups, _ := WorkloadByName("GUPS")
	s := QuickScale()
	base := Config{
		Workload: gups,
		MemGB:    s.MemGB,
		Scale:    s.Scale,
		Accesses: 100_000,
		TLB:      s.TLB,
	}
	thpCfg := base
	thpCfg.Policy = PolicyTHP
	thp, err := Run(thpCfg)
	if err != nil {
		t.Fatal(err)
	}
	triCfg := base
	triCfg.Policy = PolicyTrident
	tri, err := Run(triCfg)
	if err != nil {
		t.Fatal(err)
	}
	if tri.Perf.CyclesPerAccess >= thp.Perf.CyclesPerAccess {
		t.Errorf("Trident (%.1f cyc/acc) not faster than THP (%.1f)",
			tri.Perf.CyclesPerAccess, thp.Perf.CyclesPerAccess)
	}
	if tri.MappedFinal[Size1G] == 0 {
		t.Error("Trident mapped no 1GB pages")
	}
	if thp.MappedFinal[Size1G] != 0 {
		t.Error("THP mapped 1GB pages")
	}
}

func TestMachineryFacade(t *testing.T) {
	k := NewKernel(2*GiB, TridentMaxOrder)
	task := k.NewTask("demo")
	zero := NewZeroFillDaemon(k)
	zero.Refill(2)
	policy := NewTridentPolicy(k, zero)
	va, err := task.AS.MMapAligned(Page1G, Page1G, VMAAnon)
	if err != nil {
		t.Fatal(err)
	}
	r, err := policy.Handle(task, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != Size1G {
		t.Errorf("fault size = %v, want 1GB", r.Size)
	}
	if HumanBytes(Page1G) != "1GB" {
		t.Errorf("HumanBytes = %q", HumanBytes(Page1G))
	}
}

func TestExperimentTableRendering(t *testing.T) {
	table := FaultLatency(QuickScale())
	text := table.String()
	for _, want := range []string{"async zero-fill", "2MB fault"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
	csv := table.CSV()
	if !strings.HasPrefix(csv, "case,latency_ms,paper_ms") {
		t.Errorf("CSV header = %q", strings.SplitN(csv, "\n", 2)[0])
	}
}

// TestNewVM: the facade boots the guest kernel itself, at the requested
// size, and rejects a guest size that is not a positive multiple of 1GB
// and a guest max order the buddy allocator does not support.
func TestNewVM(t *testing.T) {
	host := NewKernel(4*GiB, TridentMaxOrder)
	policy := NewTHPPolicy(host)
	vm, err := NewVM(host, policy, 2*GiB, TridentMaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Guest.Mem.Bytes() != 2*GiB || vm.Guest.Buddy.MaxOrder() != TridentMaxOrder {
		t.Errorf("guest kernel has %d bytes, max order %d", vm.Guest.Mem.Bytes(), vm.Guest.Buddy.MaxOrder())
	}
	for _, bad := range []uint64{0, Page2M} {
		if _, err := NewVM(host, policy, bad, TridentMaxOrder); err == nil {
			t.Errorf("guest size %d accepted", bad)
		}
	}
	for _, bad := range []int{5, 19} {
		if _, err := NewVM(host, policy, 2*GiB, bad); err == nil {
			t.Errorf("guest max order %d accepted", bad)
		}
	}
}
