package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fragment"
	"repro/internal/hawkeye"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/workload"
)

// oracleRun runs cfg, with the oracle on or off, under a recorder that
// samples every batch and, with events, traces every fault. It fails on a
// run error unless mayFail, and renders the Result (as JSON: pointees too,
// floats exactly), the error, the series CSV and the trace, line by line.
func oracleRun(t *testing.T, cfg Config, oracle, events, mayFail bool) (*Result, []string) {
	t.Helper()
	dir := t.TempDir()
	seriesPath, tracePath := filepath.Join(dir, "series.csv"), ""
	paths := []string{seriesPath}
	if events {
		tracePath = filepath.Join(dir, "trace.json")
		paths = append(paths, tracePath)
	}
	ob := obs.NewObserver(tracePath, seriesPath, 1, events)
	rec := ob.NewRun("run")
	cfg.Obs = rec
	res, err := run(context.Background(), cfg, oracle)
	if err != nil && !mayFail {
		t.Fatalf("oracle=%v: %v", oracle, err)
	}
	ob.Flush(rec)
	if cerr := ob.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	js, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatal(jerr)
	}
	out := []string{"result " + string(js), fmt.Sprint("error ", err)}
	for _, path := range paths {
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if path == tracePath && err == nil && !strings.Contains(string(b), `"ph":"i"`) {
			t.Fatal("no trace events recorded")
		}
		out = append(out, strings.Split(string(b), "\n")...)
	}
	return res, out
}

// assertOracleEquivalent runs cfg with the oracle and with every fast
// path, each on a machine pool primed by primePool(prime), and fails
// unless both give the same Result (by DeepEqual and by JSON), error,
// series CSV and trace. Only a mayFail config may end in an error, and
// then both runs must end in the same one.
func assertOracleEquivalent(t *testing.T, cfg Config, events, mayFail bool, prime uint8) {
	t.Helper()
	var res [2]*Result
	var out [2][]string
	for i, oracle := range []bool{true, false} {
		primePool(prime)
		res[i], out[i] = oracleRun(t, cfg, oracle, events, mayFail)
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("fast run's Result differs from the oracle's:\noracle: %+v\nfast:   %+v", res[0], res[1])
	}
	if slices.Equal(out[0], out[1]) {
		return
	}
	want, got := append(out[0], "<end>"), append(out[1], "<end>")
	i := 0
	for want[i] == got[i] {
		i++
	}
	t.Fatalf("fast run differs from the oracle at line %d of %d/%d:\noracle: %s\nfast:   %s",
		i, len(out[0]), len(out[1]), want[i], got[i])
}

// TestRunScalarEquivalence pins the fast paths — run-coalesced translation
// and population by fault-around (DESIGN.md §5c) — to the oracle: every
// row must give the same Result, error, series CSV and, where traced, fault
// trace both ways. The first six rows check every TLB fast-path hit
// against the page walk under a ragged access count, whose short final
// batch takes the run pipeline too; Redis drives the request flush, the
// measurement-time Extend and the p99 histogram. The Btree row keeps a
// small fragmented footprint in Skylake's TLB while HawkEye collapses and
// compacts between sampling batches, so a range flush that drops one
// cached, still-mapped neighbour too many costs a walk the oracle's
// per-page flushes do not. The batch row is the production shape: no
// shadow check, whole batches. These seven must succeed; chaosDraws are
// the rest, and may end in an error, the same one both ways.
func TestRunScalarEquivalence(t *testing.T) {
	type row struct {
		name            string
		cfg             Config
		events, mayFail bool
	}
	ragged := func(workload string, p PolicyKind, mutate func(*Config)) Config {
		cfg := testConfig(workload, p)
		cfg.Accesses = 70_003
		cfg.ShadowCheck = true
		mutate(&cfg)
		return cfg
	}
	batch := testConfig("GUPS", PolicyTrident)
	batch.Accesses = 40 * batchAccesses
	rows := []row{
		{"trident", ragged("GUPS", PolicyTrident, func(c *Config) {}), false, false},
		{"hawkeye-fragmented", ragged("GUPS", PolicyHawkEye, func(c *Config) { c.Fragment = true }), false, false},
		{"trident-pv-virtualized", ragged("GUPS", PolicyTrident, func(c *Config) {
			c.Virtualized, c.HostPolicy, c.Pv, c.KhugepagedBudgetFrac = true, PolicyTrident, true, 0.10
		}), false, false},
		{"svm-4k", ragged("SVM", Policy4K, func(c *Config) {}), false, false},
		{"redis-hawkeye", ragged("Redis", PolicyHawkEye, func(c *Config) {}), false, false},
		{"btree-hawkeye-fragmented-skylake", ragged("Btree", PolicyHawkEye, func(c *Config) {
			c.Fragment, c.MemGB, c.Scale, c.TLB = true, 2, 1.0/512, nil
		}), false, false},
		{"batch-gups", batch, false, false},
	}
	for _, d := range chaosDraws() {
		rows = append(rows, row{d.name(), d.config(), true, true})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			assertOracleEquivalent(t, r.cfg, r.events, r.mayFail, 0)
		})
	}
}

// runDraw is one generated whole-run config: FuzzRunEquivalence's input,
// and the shape of TestRunScalarEquivalence's chaos rows.
type runDraw struct {
	workload, policy, host uint8 // drawWorkloads index; PolicyKinds, modulo 8
	virt, pv, frag         bool
	tlb                    uint8  // 0: Skylake; else tinyTLB reshaped (drawTLB)
	seed                   uint64 // the run's and the injector's seed
	rate                   uint8  // buddy failures at rate/1000, zero-pool 2×, aborts 4×
	accesses               uint16
	shrink                 uint8 // footprints at 1/16 scale, halved shrink%3 times
}

var drawWorkloads = []string{"Redis", "Graph500", "SVM", "Btree", "GUPS", "Canneal", "Memcached"}

// chaosDraws are TestRunScalarEquivalence's chaos rows: every policy on
// fresh and fragmented memory, and four virtualized runs, one of them pv,
// all under injected faults with the shadow check and the auditor on.
func chaosDraws() []runDraw {
	var ds []runDraw
	for p := range uint8(8) {
		for j, frag := range []bool{false, true} {
			ds = append(ds, runDraw{workload: (p + uint8(j)) % 4, policy: p, frag: frag})
		}
	}
	ds = append(ds,
		runDraw{workload: 0, policy: 0, virt: true, host: 1, frag: true},           // Redis, 4KB on THP
		runDraw{workload: 1, policy: 1, virt: true, host: 1, frag: true},           // Graph500, THP on THP
		runDraw{workload: 2, policy: 4, virt: true, host: 5},                       // SVM, HawkEye on Trident
		runDraw{workload: 0, policy: 5, virt: true, host: 5, pv: true, frag: true}, // Redis, pv Trident on Trident
	)
	for i := range ds {
		ds[i].seed, ds[i].rate, ds[i].accesses = uint64(i+1), 50, 20_000
	}
	return ds
}

func (d runDraw) config() Config {
	spec, _ := workload.ByName(drawWorkloads[int(d.workload)%len(drawWorkloads)])
	policy := PolicyKind(d.policy % 8)
	// A guest, or a 1GB pool reserved with headroom, needs a bigger host.
	memGB := uint64(2)
	if d.virt || policy == PolicyHugetlbfs1G {
		memGB = 4
	}
	r := float64(d.rate) / 1000
	cfg := Config{
		Workload: spec, Policy: policy, MemGB: memGB, Scale: 1 / float64(int(16)<<(d.shrink%3)),
		Accesses: max(1, int(d.accesses)), Seed: d.seed, Fragment: d.frag,
		TLB: drawTLB(d.tlb), ShadowCheck: true, AuditEvery: 4,
		Chaos: chaos.Config{
			Seed: d.seed, BuddyFailRate: r, ZeroPoolFailRate: min(1, 2*r),
			CompactAbortRate: min(1, 4*r), PromoteAbortRate: min(1, 4*r),
		},
	}
	if d.virt {
		cfg.Virtualized, cfg.HostPolicy, cfg.Pv = true, PolicyKind(d.host%8), d.pv
	}
	return cfg
}

// name is the draw's subtest name.
func (d runDraw) name() string {
	cfg := d.config()
	name := fmt.Sprintf("chaos/%s/%v/frag=%v", cfg.Workload.Name, cfg.Policy, d.frag)
	if d.virt {
		name += fmt.Sprintf("/host=%v/pv=%v", cfg.HostPolicy, d.pv)
	}
	return name
}

// drawTLB is nil (Skylake) for 0, else tinyTLB reshaped by b's bits: 1–4
// L1 4KB ways, an L2 of 4–32 sets of 2–8 ways, 1–4 1GB L2 ways.
func drawTLB(b uint8) *tlb.Config {
	if b == 0 {
		return nil
	}
	c := tinyTLB()
	c.L1[units.Size4K].Ways = 1 + int(b&3)
	c.L2Shared = tlb.Geometry{Sets: 4 << (b >> 2 & 3), Ways: 2 + 2*int(b>>4&3)}
	c.L2Huge.Ways = 1 + int(b>>6)
	return c
}

// primePool, for a non-zero prime, leaves the pool holding one kernel
// booted at prime%7+1 GB, of Trident's buddy flavour when prime is odd, and
// one Fragmenter applied to it, so the run re-boots a kernel and re-applies
// a Fragmenter first used at another size or flavour (kernel.Boot and
// fragment.Fragmenter.Apply, the machine pool's contract). It also parks a
// run kit whose MMU a run has left dirty, at Skylake's TLB geometry when
// prime is odd and at tinyTLB's when it is even, so the run resets an MMU
// in place or rebuilds it (mmu.MMU.Reset).
func primePool(prime uint8) {
	if prime == 0 {
		return
	}
	drainMachinePool()
	maxOrder := units.StockMaxOrder
	if prime%2 == 1 {
		maxOrder = units.TridentMaxOrder
	}
	k := kernel.New(uint64(prime%7+1)*units.Page1G, maxOrder)
	f := new(fragment.Fragmenter)
	if err := f.Apply(k, fragment.Config{Seed: uint64(prime), UnmovableBytes: k.Mem.Bytes() / 128, FreeBytes: k.Mem.Bytes() / 2}); err != nil {
		panic(err)
	}
	releaseKernel(k)
	releaseFragmenter(f)
	geometry := *tinyTLB()
	if prime%2 == 1 {
		geometry = tlb.Skylake()
	}
	m := mmu.New(geometry)
	for size := units.PageSize(0); size < units.NumPageSizes; size++ {
		va := uint64(prime)<<32 + uint64(size)<<30
		m.TLB.AccessMissedAll(va, size)
		m.PWC.WalkAccesses(va, size)
		m.HostPWC.WalkAccesses(va, size)
		m.BySize[size].Accesses = uint64(prime)
		m.TLB.SweepL1Runs([]stream.Run{{Access: stream.Access{VA: va}, Len: 1}}, make([]uint8, 1))
	}
	m.Faults, m.ShadowCheck = 1, true
	releaseRunKit(runKit{m: m, runs: make([]stream.Run, 0, 8), cands: make([]hawkeye.Candidate, 3)})
}

// FuzzRunEquivalence is TestRunScalarEquivalence over drawn configs: any
// workload, policy, virtualized host policy and pv, fragmentation, TLB
// geometry, chaos seed and rates, access count and scale, with the shadow
// check and the auditor on, traced or not, some on a pooled kernel first
// booted at another size or flavour and, fragmented, a pooled Fragmenter
// first applied to it. Its corpus is the chaos rows, reshaped.
func FuzzRunEquivalence(f *testing.F) {
	for i, d := range chaosDraws() {
		if i%4 == 3 {
			f.Add(d.workload, d.policy, d.host, d.virt, d.pv, d.frag, uint8(37*i), d.seed,
				uint8(i/4), uint16(997*i), uint8(2), i%8 == 3, uint8(i/4))
		}
	}
	f.Fuzz(func(t *testing.T, wl, policy, host uint8, virt, pv, frag bool, tlbBits uint8,
		seed uint64, rate uint8, accesses uint16, shrink uint8, events bool, prime uint8) {
		d := runDraw{wl, policy, host, virt, pv, frag, tlbBits, seed, rate, accesses, shrink}
		assertOracleEquivalent(t, d.config(), events, true, prime)
	})
}
