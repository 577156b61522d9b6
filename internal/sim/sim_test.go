package sim

import (
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/kernel"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyTLB shrinks every structure ~16× so the test-scale footprints sit in
// the same footprint-to-reach regime as the paper's machine.
func tinyTLB() *tlb.Config {
	return &tlb.Config{
		L1: [units.NumPageSizes]tlb.Geometry{
			units.Size4K: {Sets: 2, Ways: 2},
			units.Size2M: {Sets: 1, Ways: 2},
			units.Size1G: {Sets: 1, Ways: 2},
		},
		L2Shared: tlb.Geometry{Sets: 16, Ways: 6}, // 96 entries → 192MB 2MB reach
		L2Huge:   tlb.Geometry{Sets: 1, Ways: 4},  // 4GB 1GB reach
		PWC: [3]tlb.Geometry{
			{Sets: 1, Ways: 4},
			{Sets: 1, Ways: 2},
			{Sets: 1, Ways: 2},
		},
	}
}

func testConfig(name string, policy PolicyKind) Config {
	spec, ok := workload.ByName(name)
	if !ok {
		panic("unknown workload " + name)
	}
	return Config{
		Workload: spec,
		Policy:   policy,
		MemGB:    8,
		Scale:    0.25,
		Accesses: 150_000,
		Seed:     3,
		TLB:      tinyTLB(),
	}
}

func TestRunAllPoliciesComplete(t *testing.T) {
	policies := []PolicyKind{
		Policy4K, PolicyTHP, PolicyHugetlbfs2M, PolicyHugetlbfs1G,
		PolicyHawkEye, PolicyTrident, PolicyTrident1GOnly, PolicyTridentNC,
	}
	for _, p := range policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := testConfig("GUPS", p)
			cfg.Accesses = 60_000
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trans.Accesses == 0 {
				t.Error("no accesses measured")
			}
			if res.Perf.CyclesPerAccess <= 0 {
				t.Error("no cycles modeled")
			}
		})
	}
}

func TestPolicyKindString(t *testing.T) {
	if PolicyKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
	seen := map[string]bool{}
	for p := Policy4K; p <= PolicyTridentNC; p++ {
		s := p.String()
		if seen[s] {
			t.Errorf("duplicate name %q", s)
		}
		seen[s] = true
	}
}

// The headline ordering on a 1GB-sensitive, pre-allocating workload:
// Trident beats THP beats 4KB, and walk-cycle fractions order oppositely.
func TestPerformanceOrderingGUPS(t *testing.T) {
	perf := map[PolicyKind]*Result{}
	for _, p := range []PolicyKind{Policy4K, PolicyTHP, PolicyTrident} {
		res, err := Run(testConfig("GUPS", p))
		if err != nil {
			t.Fatal(err)
		}
		perf[p] = res
	}
	if !(perf[PolicyTrident].Perf.CyclesPerAccess < perf[PolicyTHP].Perf.CyclesPerAccess &&
		perf[PolicyTHP].Perf.CyclesPerAccess < perf[Policy4K].Perf.CyclesPerAccess) {
		t.Errorf("cycles ordering violated: 4K=%.1f THP=%.1f Trident=%.1f",
			perf[Policy4K].Perf.CyclesPerAccess,
			perf[PolicyTHP].Perf.CyclesPerAccess,
			perf[PolicyTrident].Perf.CyclesPerAccess)
	}
	if !(perf[PolicyTrident].Perf.WalkCycleFraction < perf[PolicyTHP].Perf.WalkCycleFraction &&
		perf[PolicyTHP].Perf.WalkCycleFraction < perf[Policy4K].Perf.WalkCycleFraction) {
		t.Errorf("walk-fraction ordering violated: 4K=%.3f THP=%.3f Trident=%.3f",
			perf[Policy4K].Perf.WalkCycleFraction,
			perf[PolicyTHP].Perf.WalkCycleFraction,
			perf[PolicyTrident].Perf.WalkCycleFraction)
	}
	// Trident maps the pre-allocated table with 1GB pages at fault time.
	if perf[PolicyTrident].MappedAfterFaults[units.Size1G] == 0 {
		t.Error("Trident mapped no 1GB pages at fault time for GUPS")
	}
}

func TestDisablePromotionFreezesMappings(t *testing.T) {
	cfg := testConfig("Redis", PolicyTrident)
	cfg.DisablePromotion = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MappedAfterFaults != res.MappedFinal {
		t.Errorf("mappings changed despite DisablePromotion: %v -> %v",
			res.MappedAfterFaults, res.MappedFinal)
	}
	// Redis is incremental: no 1GB pages from the fault path (Table 3).
	if res.MappedAfterFaults[units.Size1G] != 0 {
		t.Error("incremental workload got fault-time 1GB pages")
	}
}

func TestPromotionGives1GToIncrementalWorkload(t *testing.T) {
	cfg := testConfig("Redis", PolicyTrident)
	cfg.Scale = 0.5 // runs between gaps must exceed 1GB
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MappedFinal[units.Size1G] == 0 {
		t.Error("promotion produced no 1GB pages for Redis (Table 3 story)")
	}
	if res.Promote == nil || res.Promote.Promoted[units.Size1G] == 0 {
		t.Error("promotion stats missing")
	}
}

func TestFragmentedRun(t *testing.T) {
	cfg := testConfig("SVM", PolicyTrident)
	cfg.Scale = 0.5 // prealloc chunks must exceed 1GB
	cfg.Fragment = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fault-time 1GB allocations mostly fail under fragmentation (Table 4).
	if res.Fault.Attempts1G > 0 && res.Fault.Failed1G == 0 {
		t.Error("no fault-time 1GB failures despite fragmentation")
	}
	// Smart compaction must have been exercised.
	if res.SmartCompact == nil || res.SmartCompact.Attempts == 0 {
		t.Error("smart compaction never ran")
	}
	// And promotion still obtained some 1GB pages.
	if res.MappedFinal[units.Size1G] == 0 {
		t.Error("no 1GB pages under fragmentation")
	}
}

// TestFragmentedRunUnalignedFootprint is a regression test: at Scale 0.1
// GUPS's footprint is not a whole number of 4KB frames, and the free
// memory the run asks the fragmenter for (1.5 footprints plus 1GB) must be
// rounded up to whole frames, or Apply cannot reclaim exactly that much
// and the run fails.
func TestFragmentedRunUnalignedFootprint(t *testing.T) {
	for _, gb := range []uint64{8, 12} {
		cfg := testConfig("GUPS", PolicyTrident)
		cfg.MemGB, cfg.Scale, cfg.Accesses, cfg.Fragment = gb, 0.1, 20_000, true
		if fp := uint64(float64(cfg.Workload.Footprint) * cfg.Scale); fp%units.Page4K == 0 {
			t.Fatalf("footprint %d B is a whole number of frames; the test needs one that is not", fp)
		}
		if _, err := Run(cfg); err != nil {
			t.Errorf("%dGB: %v", gb, err)
		}
	}
}

func TestTridentNCUsesNormalCompactionOnly(t *testing.T) {
	cfg := testConfig("SVM", PolicyTridentNC)
	cfg.Fragment = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SmartCompact != nil {
		t.Error("Trident-NC used smart compaction")
	}
	if res.NormalCompact == nil || res.NormalCompact.Attempts == 0 {
		t.Error("normal compaction never ran under Trident-NC")
	}
}

func TestTrident1GonlyMapsNo2M(t *testing.T) {
	res, err := Run(testConfig("GUPS", PolicyTrident1GOnly))
	if err != nil {
		t.Fatal(err)
	}
	if res.MappedFinal[units.Size2M] != 0 {
		t.Errorf("Trident-1Gonly mapped %d bytes with 2MB pages",
			res.MappedFinal[units.Size2M])
	}
}

func TestVirtualizedRun(t *testing.T) {
	cfg := testConfig("GUPS", PolicyTrident)
	cfg.Virtualized = true
	cfg.HostPolicy = PolicyTrident
	cfg.MemGB = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "Trident+Trident" {
		t.Errorf("policy label = %q", res.Policy)
	}
	// Nested 1GB+1GB walks cost at most 8 accesses; with PWC far less, but
	// any walk must exceed 0.
	if res.Trans.Walks == 0 {
		t.Log("no walks — acceptable if TLB covers everything")
	}
	if res.Trans.Accesses == 0 {
		t.Fatal("nothing measured")
	}
}

func TestVirtualized4KSlowerThanTrident(t *testing.T) {
	mk := func(p PolicyKind) *Result {
		cfg := testConfig("GUPS", p)
		cfg.Virtualized = true
		cfg.HostPolicy = p
		cfg.MemGB = 10
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r4 := mk(Policy4K)
	rt := mk(PolicyTrident)
	if rt.Perf.CyclesPerAccess >= r4.Perf.CyclesPerAccess {
		t.Errorf("virtualized Trident (%.1f) not faster than 4KB+4KB (%.1f)",
			rt.Perf.CyclesPerAccess, r4.Perf.CyclesPerAccess)
	}
}

func TestPvRunExchangesPages(t *testing.T) {
	cfg := testConfig("Memcached", PolicyTrident)
	cfg.Virtualized = true
	cfg.HostPolicy = PolicyTrident
	cfg.Pv = true
	cfg.MemGB = 12
	cfg.Fragment = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtStats == nil {
		t.Fatal("no virt stats")
	}
	// Memcached's slabs fault as 2MB inside the guest, so 1GB promotion
	// goes via exchange.
	if res.Promote != nil && res.Promote.Promoted[units.Size1G] > 0 &&
		res.VirtStats.PagesExchanged == 0 && res.Promote.PagesExchanged > 0 {
		t.Error("promote exchanged pages but hypervisor saw none")
	}
}

func TestKhugepagedBudgetLimitsWork(t *testing.T) {
	base := testConfig("Redis", PolicyTrident)
	base.Fragment = true

	unlimited, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	capped := base
	capped.KhugepagedBudgetFrac = 0.0001 // nearly zero budget
	cappedRes, err := Run(capped)
	if err != nil {
		t.Fatal(err)
	}
	if cappedRes.Promote.Promoted[units.Size1G] > unlimited.Promote.Promoted[units.Size1G] {
		t.Error("capped khugepaged promoted more than unlimited")
	}
	if cappedRes.DaemonOverhead > 0.0001 {
		t.Errorf("overhead %v exceeds cap", cappedRes.DaemonOverhead)
	}
}

func TestTailLatencyReported(t *testing.T) {
	res, err := Run(testConfig("Redis", PolicyTrident))
	if err != nil {
		t.Fatal(err)
	}
	if res.TailP99Ns <= 0 {
		t.Fatal("no tail latency for throughput workload")
	}
	// In the right ballpark of Table 5 (tens of ms).
	if ms := res.TailP99Ns / 1e6; ms < 40 || ms > 70 {
		t.Errorf("Redis p99 = %v ms, expected ≈46-55", ms)
	}
	// Non-throughput workloads report none.
	res2, err := Run(testConfig("GUPS", PolicyTrident))
	if err != nil {
		t.Fatal(err)
	}
	if res2.TailP99Ns != 0 {
		t.Error("GUPS reported a tail latency")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(testConfig("SVM", PolicyTrident))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig("SVM", PolicyTrident))
	if err != nil {
		t.Fatal(err)
	}
	if a.Perf != b.Perf || a.Trans != b.Trans || a.MappedFinal != b.MappedFinal {
		t.Error("identical configs produced different results")
	}
}

func TestHugetlbfsReservationFailsUnderFragmentation(t *testing.T) {
	cfg := testConfig("GUPS", PolicyHugetlbfs1G)
	cfg.Fragment = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §7 "Comparison with static allocation": 1GB-Hugetlbfs fails when
	// memory is fragmented — everything ends up 4KB.
	if res.MappedFinal[units.Size1G] != 0 {
		t.Errorf("hugetlbfs got %d 1GB bytes on fragmented memory",
			res.MappedFinal[units.Size1G])
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("config without workload accepted")
	}
}

func TestVirtualizedFixedSizeConfigs(t *testing.T) {
	// The Figure-2 configurations: the same page size at both levels via
	// hugetlbfs policies. Walk costs must order 4KB+4KB > 2MB+2MB > 1GB+1GB.
	var walkAccesses [3]uint64
	for i, p := range []PolicyKind{Policy4K, PolicyHugetlbfs2M, PolicyHugetlbfs1G} {
		cfg := testConfig("XSBench", p)
		cfg.Virtualized = true
		cfg.HostPolicy = p
		cfg.MemGB = 12
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		walkAccesses[i] = res.Trans.WalkMemAccesses
	}
	if !(walkAccesses[0] > walkAccesses[1] && walkAccesses[1] > walkAccesses[2]) {
		t.Errorf("nested walk ordering violated: %v", walkAccesses)
	}
}

func TestBloatReportedForSparsePromotion(t *testing.T) {
	// Memcached's slabby incremental allocation plus aggressive promotion
	// produces bloat (§7 reports 38GB at full scale).
	cfg := testConfig("Memcached", PolicyTrident)
	cfg.Scale = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promote == nil {
		t.Fatal("no promotion stats")
	}
	// The workload touches everything it allocates, so bloat here comes
	// only from gap pages and partial tail ranges — it must at least be
	// tracked without underflow.
	if res.BloatBytes > res.HeapBytes {
		t.Errorf("bloat %d exceeds heap %d", res.BloatBytes, res.HeapBytes)
	}
}

func TestHugetlbfs1GBeatsTridentOnBtree(t *testing.T) {
	// §7 "Comparison with static allocation": Btree is the one workload
	// where 1GB-Hugetlbfs beats Trident, because the tree grows
	// incrementally and Trident only gets 1GB pages via later promotion
	// while hugetlbfs backs everything greedily from the start.
	ht, err := Run(testConfig("Btree", PolicyHugetlbfs1G))
	if err != nil {
		t.Fatal(err)
	}
	tri, err := Run(testConfig("Btree", PolicyTrident))
	if err != nil {
		t.Fatal(err)
	}
	if ht.MappedFinal[units.Size1G] == 0 {
		t.Fatal("hugetlbfs mapped no 1GB for Btree")
	}
	// Both must map 1GB memory; hugetlbfs at least as much.
	if ht.MappedFinal[units.Size1G] < tri.MappedFinal[units.Size1G] {
		t.Errorf("hugetlbfs 1GB (%d) below Trident (%d)",
			ht.MappedFinal[units.Size1G], tri.MappedFinal[units.Size1G])
	}
}

func TestBudgetTimelineBlending(t *testing.T) {
	// With a khugepaged budget, performance blends in the pre-promotion
	// period: a tighter budget means promotion completes later in the run,
	// so measured cycles/access must not improve as the budget shrinks.
	base := testConfig("SVM", PolicyTrident)
	base.Scale = 0.5
	base.Fragment = true

	loose := base
	loose.KhugepagedBudgetFrac = 0.5
	looseRes, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	tight := base
	tight.KhugepagedBudgetFrac = 0.02
	tightRes, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	if tightRes.Perf.CyclesPerAccess < looseRes.Perf.CyclesPerAccess-1e-9 {
		t.Errorf("tighter budget ran faster: %.2f vs %.2f",
			tightRes.Perf.CyclesPerAccess, looseRes.Perf.CyclesPerAccess)
	}
	// And an unbudgeted run (no blending) is at least as fast as either.
	free, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if free.Perf.CyclesPerAccess > tightRes.Perf.CyclesPerAccess+1e-9 {
		t.Errorf("unbudgeted run slower than budgeted: %.2f vs %.2f",
			free.Perf.CyclesPerAccess, tightRes.Perf.CyclesPerAccess)
	}
}

func TestPvRestoresHostMappings(t *testing.T) {
	// pv exchanges demote host 1GB mappings; the host's own khugepaged must
	// re-promote them so the guest's 1GB pages stay effective end to end.
	cfg := testConfig("Memcached", PolicyTrident)
	cfg.Scale = 0.5
	cfg.Virtualized = true
	cfg.HostPolicy = PolicyTrident
	cfg.Pv = true
	cfg.MemGB = 16
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtStats == nil || res.VirtStats.PagesExchanged == 0 {
		t.Skip("no exchanges happened at this scale")
	}
	if res.VirtStats.HostDemotions == 0 {
		t.Error("exchanges happened without host demotions")
	}
	// Guest 1GB pages exist and the measured effective translation shows
	// 1GB-level behaviour (walks far below 2MB-level thrash).
	if res.MappedFinal[units.Size1G] == 0 {
		t.Error("guest has no 1GB pages")
	}
}

// TestKernelReuseDeterminism pins the machine-pool contract (DESIGN.md
// §5c): a kernel released to the pool after a successful run and reacquired
// by the next run of the same geometry must be observably identical to a
// freshly booted one. The pool is drained first, so the first run boots
// and the second provably executes on the first run's Reset kernels — any
// Reset leak (stale mapping, frame owner, buddy state, task ID, chaos
// hook) shows up as a Result difference. The same holds for the run kit:
// the second run reuses the first one's MMU, flushed in place, and a
// HawkEye run the first one's candidate list. In the rows with another
// TLB geometry, the first run uses Skylake's, so the second run's MMU
// gets new caches at the test geometry; the pool must still hold one kit.
func TestKernelReuseDeterminism(t *testing.T) {
	for _, row := range []struct {
		name           string
		policy         PolicyKind
		virt, otherTLB bool
	}{
		{"native", PolicyTrident, false, false},
		{"virtualized", PolicyTrident, true, false},
		{"native after another TLB geometry", PolicyTrident, false, true},
		{"virtualized after another TLB geometry", PolicyTrident, true, true},
		{"HawkEye", PolicyHawkEye, false, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := testConfig("GUPS", row.policy)
			cfg.Accesses = 40_000
			cfg.ShadowCheck = true
			if row.virt {
				cfg.Virtualized = true
				cfg.HostPolicy = row.policy
			}
			fresh := freshRun(t, cfg)
			if row.otherTLB {
				other := cfg
				other.TLB = &tlb.Config{}
				*other.TLB = tlb.Skylake()
				freshRun(t, other)
			}
			pooled := mustRun(t, cfg)
			if !reflect.DeepEqual(fresh, pooled) {
				t.Errorf("pooled-kernel run differs from fresh-kernel run:\nfresh:  %+v\npooled: %+v", fresh, pooled)
			}
			machinePoolMu.Lock()
			kits := len(kitPool)
			machinePoolMu.Unlock()
			if kits != 1 {
				t.Errorf("pool holds %d run kits, want the 1 both runs shared", kits)
			}
		})
	}
}

// mustRun runs cfg, failing the test on error.
func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// freshRun runs cfg on freshly booted kernels: it drains the pool first.
func freshRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	drainMachinePool()
	return mustRun(t, cfg)
}

// TestKernelBootDeterminism extends the machine-pool contract across
// memory sizes and buddy flavours (kernel.Boot): one kernel, booted for a
// 5GB Trident run, serves in turn a THP run at the same size, THP runs
// that grow it beyond its capacity and shrink it, a Trident run at the
// shrunk size, and a Trident run that grows it again within its capacity.
// The two same-size rows switch the flavour in both directions; the last
// grow reuses the buddy free-bitmap words that lay in spare capacity
// through the second switch. One Fragmenter likewise serves every row,
// re-applied at each size and flavour. A virtualized run's guest is served
// by a former 16GB host kernel. Every run fragments memory, checks the TLB fast
// path against the page walk, and injects faults (each injection and phase
// boundary audits the machine), and each must equal the same run on fresh
// kernels.
func TestKernelBootDeterminism(t *testing.T) {
	base := testConfig("GUPS", PolicyTrident)
	base.Accesses = 40_000
	base.Fragment = true
	base.ShadowCheck = true
	base.Chaos = chaos.Config{
		Seed:             5,
		BuddyFailRate:    0.0005,
		ZeroPoolFailRate: 0.05,
		CompactAbortRate: 0.002,
		PromoteAbortRate: 0.004,
	}
	t.Run("native", func(t *testing.T) {
		small, large := base, base
		small.MemGB = 5
		large.MemGB = 7
		smallTHP, largeTHP := small, large
		smallTHP.Policy = PolicyTHP
		largeTHP.Policy = PolicyTHP
		freshSmall, freshSmallTHP := freshRun(t, small), freshRun(t, smallTHP)
		freshLarge, freshLargeTHP := freshRun(t, large), freshRun(t, largeTHP)
		drainMachinePool()
		mustRun(t, small) // boots the kernel every later run reuses
		for _, c := range []struct {
			name string
			cfg  Config
			want *Result
		}{
			{"THP on a kernel booted as Trident", smallTHP, freshSmallTHP},
			{"grown 5GB to 7GB beyond capacity", largeTHP, freshLargeTHP},
			{"shrunk 7GB to 5GB", smallTHP, freshSmallTHP},
			{"Trident on a stock kernel", small, freshSmall},
			{"regrown 5GB to 7GB within capacity", large, freshLarge},
		} {
			// The rows run in order: each re-boots the kernel the row
			// before it parked.
			t.Run(c.name, func(t *testing.T) {
				got := mustRun(t, c.cfg)
				if got.Chaos == nil || got.Chaos.Total() == 0 {
					t.Error("no injections fired")
				}
				if !reflect.DeepEqual(c.want, got) {
					t.Errorf("run differs from a fresh one:\nfresh:     %+v\nre-booted: %+v", c.want, got)
				}
			})
		}
		machinePoolMu.Lock()
		frags := len(fragPool)
		machinePoolMu.Unlock()
		if parked := drainMachinePool(); len(parked) != 1 || frags != 1 {
			t.Fatalf("pool holds %d kernels and %d Fragmenters, want the 1 every run shared", len(parked), frags)
		}
	})
	t.Run("virtualized guest on a former host", func(t *testing.T) {
		cfg := base
		cfg.MemGB = 16
		cfg.Virtualized = true
		cfg.HostPolicy = PolicyTrident
		fresh := freshRun(t, cfg)
		parked := drainMachinePool() // host, then guest
		host := parked[0]
		if host.Mem.Bytes() != 16*units.Page1G {
			t.Fatalf("first parked kernel has %d bytes, want the 16GB host", host.Mem.Bytes())
		}
		// The next run's host takes the fresh 16GB kernel, its guest the
		// former host, re-booted smaller.
		releaseKernel(host)
		releaseKernel(kernel.New(16*units.Page1G, maxOrderFor(cfg.HostPolicy)))
		got := mustRun(t, cfg)
		if got.Chaos == nil || got.Chaos.Total() == 0 {
			t.Error("no injections fired")
		}
		if host.Mem.Bytes() != guestMemBytes(&cfg) {
			t.Fatalf("the former host kernel did not serve the guest (it has %d bytes)", host.Mem.Bytes())
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("run with a re-booted former host as guest differs from a fresh one:\nfresh:     %+v\nre-booted: %+v", fresh, got)
		}
	})
}
