package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
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

// runWithSeries runs cfg with an observer recording the per-batch time
// series and returns the Result together with the series CSV bytes.
func runWithSeries(t *testing.T, cfg Config, name string) (*Result, []byte) {
	t.Helper()
	series := filepath.Join(t.TempDir(), "series.csv")
	ob := obs.NewObserver("", series, 1, false)
	r := ob.NewRun(name)
	cfg.Obs = r
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ob.Flush(r)
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	return res, csv
}

// assertScalarEquivalent runs cfg once through the scalar
// one-reference-at-a-time oracle (ScalarTranslate) and once through the
// default run-coalesced pipeline, and fails unless both produce a
// byte-identical Result and an identical per-batch time-series CSV.
func assertScalarEquivalent(t *testing.T, cfg Config, name string) {
	t.Helper()
	scfg, rcfg := cfg, cfg
	scfg.ScalarTranslate = true
	rcfg.ScalarTranslate = false
	sres, scsv := runWithSeries(t, scfg, name)
	rres, rcsv := runWithSeries(t, rcfg, name)
	if !reflect.DeepEqual(sres, rres) {
		t.Errorf("runs result differs from scalar:\nscalar: %+v\nruns:   %+v", sres, rres)
	}
	if !bytes.Equal(scsv, rcsv) {
		t.Errorf("runs series CSV differs from scalar:\nscalar:\n%s\nruns:\n%s", scsv, rcsv)
	}
}

// TestBatchScalarEquivalence pins scalar/run-pipeline equivalence in the
// production configuration every bench workload runs: ShadowCheck off and an
// access count that is a whole number of batches, so every chunk takes the
// batch-boundary work (observability sample, cancellation and audit checks).
// TestRunScalarEquivalence covers the shadow-checked ragged-tail side.
func TestBatchScalarEquivalence(t *testing.T) {
	t.Run("GUPS", func(t *testing.T) {
		cfg := testConfig("GUPS", PolicyTrident)
		cfg.Accesses = 40 * batchAccesses
		assertScalarEquivalent(t, cfg, "GUPS")
	})
}

// TestRunScalarEquivalence pins the run-coalesced pipeline contract
// (DESIGN.md §5c): a configuration run through the scalar
// one-reference-at-a-time oracle (ScalarTranslate) and through the default
// run-coalesced NextRuns → SweepL1Runs → walk-only-lead-misses pipeline
// must produce a byte-identical Result and an identical per-batch
// time-series CSV — with ShadowCheck cross-checking every TLB-derived size
// against the page table, under ragged access counts that leave a short
// final batch. The Redis case is the throughput workload: it drives the
// per-batch request flush, the measurement-time Extend and the p99
// histogram through both loops. This is what licenses the memo-key
// exclusion of ScalarTranslate (internal/runner) and every probe skip and
// counter increment the run pipeline bulk-applies.
func TestRunScalarEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		policy   PolicyKind
		mutate   func(*Config)
	}{
		{"trident", "GUPS", PolicyTrident, func(c *Config) {}},
		{"hawkeye-fragmented", "GUPS", PolicyHawkEye, func(c *Config) {
			c.Fragment = true
		}},
		{"trident-pv-virtualized", "GUPS", PolicyTrident, func(c *Config) {
			c.Virtualized = true
			c.HostPolicy = PolicyTrident
			c.Pv = true
			c.KhugepagedBudgetFrac = 0.10
		}},
		{"svm-4k", "SVM", Policy4K, func(c *Config) {}},
		{"redis-hawkeye", "Redis", PolicyHawkEye, func(c *Config) {}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(tc.workload, tc.policy)
			// Ragged: not a multiple of the 2000-access batch, so the
			// final short batch takes the run pipeline too.
			cfg.Accesses = 70_003
			cfg.ShadowCheck = true
			tc.mutate(&cfg)
			assertScalarEquivalent(t, cfg, tc.name)
		})
	}
}

// TestKernelReuseDeterminism pins the machine-pool contract (DESIGN.md
// §5c): a kernel released to the pool after a successful run and reacquired
// by the next run of the same geometry must be observably identical to a
// freshly booted one. The config uses a memory size no other test in this
// package uses, so the pool slot for this geometry is empty before the
// first run and the second run provably executes on the first run's Reset
// kernel — any Reset leak (stale mapping, frame owner, buddy state, task
// ID, chaos hook) shows up as a Result difference.
func TestKernelReuseDeterminism(t *testing.T) {
	for _, virt := range []bool{false, true} {
		virt := virt
		name := "native"
		if virt {
			name = "virtualized"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig("GUPS", PolicyTrident)
			cfg.MemGB = 7 // geometry unique to this test: first acquire boots fresh
			cfg.Accesses = 40_000
			cfg.ShadowCheck = true
			if virt {
				cfg.Virtualized = true
				cfg.HostPolicy = PolicyTrident
			}
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, pooled) {
				t.Errorf("pooled-kernel run differs from fresh-kernel run:\nfresh:  %+v\npooled: %+v", fresh, pooled)
			}
		})
	}
}

// TestKernelReflavourDeterminism extends the machine-pool contract across
// buddy flavours: the pool is keyed by memory size alone, so a kernel parked
// by a stock-buddy run serves a Trident run (kernel.Reflavour) and back, and
// each such run must equal the same run on a freshly booted kernel. The
// memory size is unique to this test, so the first run boots.
func TestKernelReflavourDeterminism(t *testing.T) {
	thp := testConfig("GUPS", PolicyTHP)
	thp.MemGB = 9
	thp.Accesses = 40_000
	thp.Fragment = true
	thp.ShadowCheck = true
	tri := thp
	tri.Policy = PolicyTrident
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	freshTHP := run(thp)
	triOnStock := run(tri)
	// Hold the parked kernel out of the pool so the next run boots.
	held := acquireKernel(thp.MemGB*units.Page1G, units.TridentMaxOrder)
	freshTri := run(tri)
	releaseKernel(thp.MemGB*units.Page1G, held)
	thpOnTrident := run(thp)
	if !reflect.DeepEqual(freshTri, triOnStock) {
		t.Errorf("Trident run on a reflavoured stock kernel differs from a fresh one:\nfresh:       %+v\nreflavoured: %+v", freshTri, triOnStock)
	}
	if !reflect.DeepEqual(freshTHP, thpOnTrident) {
		t.Errorf("THP run on a reflavoured Trident kernel differs from a fresh one:\nfresh:       %+v\nreflavoured: %+v", freshTHP, thpOnTrident)
	}
}
