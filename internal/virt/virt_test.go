package virt

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/promote"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/zerofill"
)

// newVM builds a host with Trident backing and a 2GB guest.
func newVM(t *testing.T, hostGB, guestGB uint64, hostPolicy func(*kernel.Kernel) fault.Policy) (*kernel.Kernel, *VM) {
	t.Helper()
	host := kernel.New(hostGB*units.Page1G, units.TridentMaxOrder)
	vm, err := New(host, hostPolicy(host), kernel.New(guestGB*units.Page1G, units.TridentMaxOrder))
	if err != nil {
		t.Fatal(err)
	}
	return host, vm
}

func tridentPolicy(k *kernel.Kernel) fault.Policy {
	z := zerofill.New(k)
	z.Refill(1 << 20)
	return fault.NewTrident(k, z)
}

func thpPolicy(k *kernel.Kernel) fault.Policy { return fault.NewTHP(k) }

func TestNewVMBacksAllGuestMemory(t *testing.T) {
	_, vm := newVM(t, 4, 2, tridentPolicy)
	var got uint64
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		got += vm.HostPT().MappedBytes(s)
	}
	if got != 2*units.Page1G {
		t.Errorf("backed bytes = %d", got)
	}
	// Trident host backs with 1GB pages.
	if got := vm.HostPT().MappedPages(units.Size1G); got != 2 {
		t.Errorf("host 1GB pages = %d", got)
	}
	if vm.Guest.Mem.Bytes() != 2*units.Page1G {
		t.Error("guest kernel size wrong")
	}
}

func TestNewVMWithTHPHost(t *testing.T) {
	_, vm := newVM(t, 4, 2, thpPolicy)
	if got := vm.HostPT().MappedPages(units.Size2M); got != 1024 {
		t.Errorf("host 2MB pages = %d", got)
	}
}

func TestNestedTranslationThroughVM(t *testing.T) {
	_, vm := newVM(t, 4, 2, tridentPolicy)
	// Guest task maps a 2MB page at gVA.
	gt := vm.Guest.NewTask("app")
	gva, _ := gt.AS.MMapAligned(units.Page2M, units.Page2M, vmm.KindAnon)
	thp := fault.NewTHP(vm.Guest)
	if _, err := thp.Handle(gt, gva); err != nil {
		t.Fatal(err)
	}
	m := mmu.New(tlb.Skylake())
	if !m.Translate(gt.AS.PT, vm.HostPT(), gva, false) {
		t.Fatal("nested translation failed")
	}
	// Effective size = min(guest 2MB, host 1GB) = 2MB.
	if m.BySize[units.Size2M].Accesses != 1 {
		t.Error("effective size not 2MB")
	}
}

func TestExchangeSwapsHostFrames(t *testing.T) {
	_, vm := newVM(t, 4, 2, thpPolicy) // host 2MB granularity: no demotion needed
	src, dst := uint64(0), uint64(units.Page1G)
	before1, _ := vm.HostPT().Lookup(src)
	before2, _ := vm.HostPT().Lookup(dst)
	ns := vm.ExchangeGPAs([][2]uint64{{src, dst}}, true)
	if ns <= 0 {
		t.Error("no time modeled")
	}
	after1, _ := vm.HostPT().Lookup(src)
	after2, _ := vm.HostPT().Lookup(dst)
	if after1.PFN != before2.PFN || after2.PFN != before1.PFN {
		t.Errorf("frames not swapped: %d,%d -> %d,%d",
			before1.PFN, before2.PFN, after1.PFN, after2.PFN)
	}
	if vm.S.PagesExchanged != 1 || vm.S.Hypercalls != 1 || vm.S.HostDemotions != 0 {
		t.Errorf("stats = %+v", vm.S)
	}
}

func TestExchangeDemotesHost1G(t *testing.T) {
	_, vm := newVM(t, 4, 2, tridentPolicy) // host 1GB pages
	ns := vm.ExchangeGPAs([][2]uint64{{0, units.Page1G}}, true)
	if ns <= 0 {
		t.Fatal("exchange failed outright")
	}
	if vm.S.HostDemotions != 2 {
		t.Errorf("host demotions = %d, want 2", vm.S.HostDemotions)
	}
	if vm.S.PagesExchanged != 1 {
		t.Errorf("exchanged = %d", vm.S.PagesExchanged)
	}
	// Host granularity at those gPAs is now 2MB.
	if m, _ := vm.HostPT().Lookup(0); m.Size != units.Size2M {
		t.Errorf("host mapping after demotion = %v", m.Size)
	}
}

func TestExchangeBatchingCosts(t *testing.T) {
	pairs := make([][2]uint64, 512)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(i) * units.Page2M, units.Page1G + uint64(i)*units.Page2M}
	}
	_, vmB := newVM(t, 4, 2, thpPolicy)
	nsBatched := vmB.ExchangeGPAs(pairs, true)
	if vmB.S.Hypercalls != 1 {
		t.Errorf("batched hypercalls = %d, want 1", vmB.S.Hypercalls)
	}
	_, vmU := newVM(t, 4, 2, thpPolicy)
	nsUnbatched := vmU.ExchangeGPAs(pairs, false)
	if vmU.S.Hypercalls != 512 {
		t.Errorf("unbatched hypercalls = %d, want 512", vmU.S.Hypercalls)
	}
	// §6: batched ≈ 500µs, unbatched < 30ms, copy ≈ 600ms.
	if us := nsBatched / 1e3; us < 400 || us > 650 {
		t.Errorf("batched 512 exchanges = %v µs, want ≈500", us)
	}
	if ms := nsUnbatched / 1e6; ms < 20 || ms > 31 {
		t.Errorf("unbatched 512 exchanges = %v ms, want <30 and plausible", ms)
	}
}

func TestExchangeMisalignedFails(t *testing.T) {
	_, vm := newVM(t, 4, 2, thpPolicy)
	vm.ExchangeGPAs([][2]uint64{{units.Page4K, units.Page1G}}, true)
	if vm.S.ExchangeFailures != 1 {
		t.Errorf("failures = %d", vm.S.ExchangeFailures)
	}
}

func TestPvBridgeEndToEnd(t *testing.T) {
	// Guest promotes 512×2MB → 1GB with pv exchange; the host frames
	// must actually move.
	_, vm := newVM(t, 4, 2, thpPolicy)
	gt := vm.Guest.NewTask("app")
	gva, _ := gt.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	thp := fault.NewTHP(vm.Guest)
	for i := uint64(0); i < 512; i++ {
		if _, err := thp.Handle(gt, gva+i*units.Page2M); err != nil {
			t.Fatal(err)
		}
	}
	zero := zerofill.New(vm.Guest)
	d := promote.NewTrident(vm.Guest, zero)
	bridge := vm.AttachPvExchange(d, true)
	d.ScanTask(gt, 0)
	if len(bridge.pairs) != 512 {
		t.Fatalf("pending exchanges = %d, want 512", len(bridge.pairs))
	}
	bridge.Flush()
	if vm.S.PagesExchanged != 512 {
		t.Errorf("exchanged = %d", vm.S.PagesExchanged)
	}
	if vm.S.Hypercalls != 1 {
		t.Errorf("hypercalls = %d, want 1 (batched)", vm.S.Hypercalls)
	}
	// Guest sees a 1GB page.
	if m, ok := gt.AS.PT.Lookup(gva); !ok || m.Size != units.Size1G {
		t.Error("guest 1GB mapping missing after pv promotion")
	}
	if len(bridge.pairs) != 0 {
		t.Error("bridge not drained")
	}
}

func TestGuestFaultPoliciesWorkInsideVM(t *testing.T) {
	_, vm := newVM(t, 6, 4, tridentPolicy)
	gt := vm.Guest.NewTask("app")
	gz := zerofill.New(vm.Guest)
	gz.Refill(100)
	gp := fault.NewTrident(vm.Guest, gz)
	gva, _ := gt.AS.MMapAligned(2*units.Page1G, units.Page1G, vmm.KindAnon)
	r, err := gp.Handle(gt, gva)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != units.Size1G {
		t.Errorf("guest Trident fault size = %v", r.Size)
	}
	// Nested walk for that page costs 8 accesses (1GB+1GB).
	if got := pagetable.NestedWalkAccesses(units.Size1G, units.Size1G); got != 8 {
		t.Errorf("nested 1G+1G = %d", got)
	}
}

func TestNewVMValidation(t *testing.T) {
	host := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	guest := kernel.New(units.Page1G, units.TridentMaxOrder)
	if _, err := guest.Buddy.Alloc(0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := New(host, thpPolicy(host), guest); err == nil {
		t.Error("guest kernel with allocated memory accepted")
	}
}

func TestPvCompactionExchanges(t *testing.T) {
	// §6: the same hypercall also makes guest compaction copy-less. Build a
	// guest where 1GB promotion requires smart compaction moving 2MB pages.
	_, vm := newVM(t, 8, 4, thpPolicy)
	gt := vm.Guest.NewTask("app")
	gva, _ := gt.AS.MMapAligned(units.Page1G, units.Page1G, vmm.KindAnon)
	thp := fault.NewTHP(vm.Guest)
	for i := uint64(0); i < 512; i++ {
		if _, err := thp.Handle(gt, gva+i*units.Page2M); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the rest of guest memory so no free 1GB chunk exists, leaving
	// 2MB-aligned holes in one region for compaction targets.
	filler := vm.Guest.NewTask("filler")
	fva, _ := filler.AS.MMap(3*units.Page1G, vmm.KindAnon)
	for r := uint64(1); r < 4; r++ {
		for b := uint64(0); b < 512; b += 2 {
			pfn := r*units.FramesPerRegion + b*512
			if vm.Guest.Mem.IsAllocated(pfn) {
				continue
			}
			if err := vm.Guest.Buddy.AllocSpecific(pfn, units.Order2M, false); err != nil {
				continue
			}
			if err := vm.Guest.MapSpecific(filler, fva, pfn, units.Size2M); err != nil {
				t.Fatal(err)
			}
			fva += units.Page2M
		}
	}
	if vm.Guest.Buddy.FreeChunks(units.Order1G) != 0 {
		t.Skip("setup left a free 1GB chunk")
	}
	d := promote.NewTrident(vm.Guest, zerofill.New(vm.Guest))
	bridge := vm.AttachPvExchange(d, true)
	d.ScanTask(gt, 0)
	bridge.Flush()
	if d.Smart.PagesExchanged == 0 {
		t.Fatalf("smart compaction exchanged nothing: %+v", d.Smart.Stats)
	}
	if d.Smart.BytesCopied != 0 {
		t.Errorf("smart compaction still copied %d bytes for 2MB moves", d.Smart.BytesCopied)
	}
	if vm.S.PagesExchanged == 0 {
		t.Error("hypervisor saw no exchanges")
	}
}
