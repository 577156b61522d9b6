package workload_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zerofill"
)

// faultPolicies are the fault paths population runs through. HawkEye's
// fault path is THP's and Trident-NC's is Trident's; sim runs cover both
// by name. hugePages sizes a Hugetlbfs pool in 2MB pages.
var faultPolicies = []struct {
	name string
	mk   func(k *kernel.Kernel, hugePages int) fault.Policy
}{
	{"4KB", func(k *kernel.Kernel, _ int) fault.Policy { return fault.NewBase4K(k) }},
	{"THP", func(k *kernel.Kernel, _ int) fault.Policy { return fault.NewTHP(k) }},
	{"2MB-Hugetlbfs", func(k *kernel.Kernel, n int) fault.Policy {
		p, _ := fault.NewHugetlbfs(k, units.Size2M, n)
		return p
	}},
	{"1GB-Hugetlbfs", func(k *kernel.Kernel, n int) fault.Policy {
		p, _ := fault.NewHugetlbfs(k, units.Size1G, n/512+1)
		return p
	}},
	{"Trident", func(k *kernel.Kernel, _ int) fault.Policy {
		z := zerofill.New(k)
		z.Refill(1 << 20)
		return fault.NewTrident(k, z)
	}},
	{"Trident-1Gonly", func(k *kernel.Kernel, _ int) fault.Policy {
		z := zerofill.New(k)
		z.Refill(1 << 20)
		p := fault.NewTrident(k, z)
		p.Use2M = false
		return p
	}},
}

// populationCase is one population: a workload instantiated at 1/32 scale
// on a fresh kernel, then extended, with a FailAlloc hook that fails the
// failAt-th order-0 consult and huge-order consults at failRate.
type populationCase struct {
	workload  string
	policy    int
	memGB     uint64
	stock     bool   // stock buddy flavour (else Trident's)
	fragSeed  uint64 // fragment memory first with this seed; 0: do not
	hugePages int
	traced    bool // wrap the policy in fault.Traced
	failAt    int
	failRate  float64
	extends   int
}

func (c populationCase) String() string {
	return fmt.Sprintf("%s/%s/%dGB/stock=%v/frag=%d/pool=%d/traced=%v/failAt=%d/rate=%v/extends=%d",
		c.workload, faultPolicies[c.policy].name, c.memGB, c.stock, c.fragSeed,
		c.hugePages, c.traced, c.failAt, c.failRate, c.extends)
}

// populate runs c and renders everything it leaves behind: the errors and
// stalls of each call, every traced fault, the Instance's fault count and
// latency sum, and the machine (machineState).
func populate(t *testing.T, c populationCase) []string {
	t.Helper()
	spec, ok := workload.ByName(c.workload)
	if !ok {
		t.Fatalf("unknown workload %q", c.workload)
	}
	maxOrder := units.TridentMaxOrder
	if c.stock {
		maxOrder = units.StockMaxOrder
	}
	k := kernel.New(c.memGB*units.Page1G, maxOrder)
	if c.fragSeed != 0 {
		if _, err := fragment.Apply(k, fragment.Config{
			Seed:           c.fragSeed,
			UnmovableBytes: k.Mem.Bytes() / 128,
			FreeBytes:      k.Mem.Bytes() / 2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	p := faultPolicies[c.policy].mk(k, c.hugePages)
	var out []string
	if c.traced {
		p = fault.Traced(p, func(r fault.Result) { out = append(out, fmt.Sprintf("fault %+v", r)) })
	}
	consults, rng := 0, xrand.New(c.fragSeed+11)
	k.Buddy.FailAlloc = func(order int) bool {
		if order > 0 {
			return rng.Bool(c.failRate)
		}
		consults++
		return consults == c.failAt
	}
	inst, err := spec.Instantiate(k, k.NewTask(spec.Name), p, 42, 1.0/32)
	out = append(out, fmt.Sprint("instantiate: ", err))
	for i := 0; err == nil && i < c.extends; i++ {
		var stall float64
		stall, err = inst.Extend(p, 3*units.MiB+5*units.Page4K)
		out = append(out, fmt.Sprintf("extend: %#x %v", math.Float64bits(stall), err))
	}
	if inst != nil {
		out = append(out, fmt.Sprintf("instance: %d faults, %#x ns", inst.Faults, math.Float64bits(inst.FaultNs)))
	}
	out = append(out, fmt.Sprint("order-0 consults: ", consults))
	return append(out, machineState(k, p)...)
}

// machineState renders a kernel and its fault policy: every task's fault
// counts and leaf mappings, the buddy free lists, the reverse map, the
// policy's Stats (the latency sum by its bits) and the op counters.
func machineState(k *kernel.Kernel, p fault.Policy) []string {
	var out []string
	for _, task := range k.Tasks() {
		out = append(out, fmt.Sprintf("task %d %s: faults %v", task.AS.ID, task.Name, task.Faults))
		task.AS.PT.ForEach(0, pagetable.MaxVA, func(m pagetable.Mapping) bool {
			out = append(out, fmt.Sprintf("%+v", m))
			return true
		})
	}
	for o := 0; o <= k.Buddy.MaxOrder(); o++ {
		out = append(out, fmt.Sprint("free ", o, k.Buddy.FreeChunkHeads(o)))
	}
	k.Mem.ForEachOwner(func(pfn uint64, o phys.Owner) bool {
		out = append(out, fmt.Sprint("owner ", pfn, o))
		return true
	})
	s := *p.FaultStats()
	return append(out,
		fmt.Sprintf("stats %+v, latency %#x", s, math.Float64bits(s.TotalLatencyNs)),
		fmt.Sprintf("ops %+v", k.Ops))
}

// bothWays runs f once through fault-around and once through the
// per-fault oracle and fails unless the two renderings are equal.
func bothWays(t *testing.T, f func() []string) {
	t.Helper()
	got := f()
	old := workload.SetPerFault(true)
	want := f()
	workload.SetPerFault(old)
	requireEqualLines(t, got, want)
}

func requireEqualLines(t *testing.T, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	at := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "<end>"
	}
	t.Fatalf("fault-around differs from the per-fault loop at line %d of %d/%d:\n got: %s\nwant: %s",
		i, len(got), len(want), at(got), at(want))
}

// TestFaultAroundEquivalence pins population by fault-around (DESIGN.md
// §5c) to its oracle, touch's per-fault loop: every policy, native and
// virtualized, on fresh and fragmented memory, must leave the same
// machine, stats, op counts and latency sums (compared by their bits),
// call the trace hook for the same faults in the same order, and fail at
// the same fault. A FailAlloc hook fails chosen order-0 allocations (the
// chaos injector exempts order 0), so the runs' per-frame consults are
// pinned too.
func TestFaultAroundEquivalence(t *testing.T) {
	t.Run("populate", func(t *testing.T) {
		workloads := []string{"Redis", "Graph500", "GUPS", "SVM", "Canneal", "Btree"}
		n := 0
		for pi := range faultPolicies {
			for _, frag := range []uint64{0, 5} {
				for _, failAt := range []int{0, 700, 40000} {
					n++
					c := populationCase{
						workload: workloads[n%len(workloads)], policy: pi, memGB: 1,
						stock: n%3 == 0, fragSeed: frag, hugePages: 40,
						traced: n%2 == 0, failAt: failAt, failRate: 0.05, extends: 3,
					}
					t.Run(c.String(), func(t *testing.T) {
						bothWays(t, func() []string { return populate(t, c) })
					})
				}
			}
		}
	})

	// A window that holds mapped pages ahead of the fault: fault-around
	// must stop at each and leave it to touch's lookup.
	t.Run("mapped pages in the window", func(t *testing.T) {
		for pi, fp := range faultPolicies {
			t.Run(fp.name, func(t *testing.T) {
				bothWays(t, func() []string {
					k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
					p := faultPolicies[pi].mk(k, 4)
					task := k.NewTask("p")
					size := uint64(3*units.Page2M + 7*units.Page4K)
					va, err := task.AS.MMapAligned(size, units.Page2M, vmm.KindAnon)
					if err != nil {
						t.Fatal(err)
					}
					for _, off := range []uint64{5, 6, 300, 511, 600, 1023, 1200} {
						if _, err := k.AllocMapped(task, va+off*units.Page4K, units.Size4K); err != nil {
							t.Fatal(err)
						}
					}
					spec, _ := workload.ByName("Redis")
					inst := &workload.Instance{Spec: spec, K: k, Task: task}
					stall, err := workload.Touch(inst, p, va, size)
					out := []string{fmt.Sprintf("touch: %#x %v, %d faults", math.Float64bits(stall), err, inst.Faults)}
					return append(out, machineState(k, p)...)
				})
			})
		}
	})

	t.Run("sim", func(t *testing.T) {
		type runCase struct {
			workload string
			policy   sim.PolicyKind
			frag     bool
			virt     bool
			host     sim.PolicyKind
			pv       bool
		}
		var cases []runCase
		workloads := []string{"Redis", "Graph500", "SVM", "Btree"}
		for i, p := range []sim.PolicyKind{
			sim.Policy4K, sim.PolicyTHP, sim.PolicyHugetlbfs2M, sim.PolicyHugetlbfs1G,
			sim.PolicyHawkEye, sim.PolicyTrident, sim.PolicyTrident1GOnly, sim.PolicyTridentNC,
		} {
			for j, frag := range []bool{false, true} {
				cases = append(cases, runCase{workload: workloads[(i+j)%len(workloads)], policy: p, frag: frag})
			}
		}
		cases = append(cases,
			runCase{workload: "Redis", policy: sim.Policy4K, virt: true, host: sim.PolicyTHP, frag: true},
			runCase{workload: "Graph500", policy: sim.PolicyTHP, virt: true, host: sim.PolicyTHP, frag: true},
			runCase{workload: "SVM", policy: sim.PolicyHawkEye, virt: true, host: sim.PolicyTrident},
			runCase{workload: "Redis", policy: sim.PolicyTrident, virt: true, host: sim.PolicyTrident, pv: true, frag: true},
		)
		for i, rc := range cases {
			spec, _ := workload.ByName(rc.workload)
			// A guest, or a 1GB pool reserved with headroom, needs a
			// bigger host.
			memGB := uint64(2)
			if rc.virt || rc.policy == sim.PolicyHugetlbfs1G {
				memGB = 4
			}
			cfg := sim.Config{
				Workload: spec, Policy: rc.policy, MemGB: memGB, Scale: 1.0 / 16,
				Accesses: 20_000, Seed: uint64(i + 1), Fragment: rc.frag,
				AuditEvery: 4,
				Chaos: chaos.Config{
					Seed: uint64(i + 1), BuddyFailRate: 0.05, ZeroPoolFailRate: 0.1,
					CompactAbortRate: 0.2, PromoteAbortRate: 0.2,
				},
			}
			name := fmt.Sprintf("%s/%v/frag=%v", rc.workload, rc.policy, rc.frag)
			if rc.virt {
				cfg.Virtualized, cfg.HostPolicy, cfg.Pv = true, rc.host, rc.pv
				name += fmt.Sprintf("/virtualized/host=%v/pv=%v", rc.host, rc.pv)
			}
			t.Run(name, func(t *testing.T) {
				bothWays(t, func() []string { return simRun(t, cfg) })
			})
		}
	})
}

// simRun runs cfg with every fault event traced and a series row per
// batch, and renders the result, the error, the series CSV and the trace.
func simRun(t *testing.T, cfg sim.Config) []string {
	t.Helper()
	dir := t.TempDir()
	tracePath, seriesPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "series.csv")
	ob := obs.NewObserver(tracePath, seriesPath, 1, true)
	r := ob.NewRun("run")
	cfg.Obs = r
	res, err := sim.Run(cfg)
	ob.Flush(r)
	if cerr := ob.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	js, jerr := json.Marshal(res) // pointees too; floats round-trip exactly
	if jerr != nil {
		t.Fatal(jerr)
	}
	out := []string{"result " + string(js), fmt.Sprint("error ", err)}
	if r.EventCount() == 0 {
		t.Fatal("no trace events recorded")
	}
	for _, path := range []string{seriesPath, tracePath} {
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		for _, line := range bytes.Split(b, []byte("\n")) {
			out = append(out, string(line))
		}
	}
	return out
}

// FuzzFaultAroundEquivalence is the populate half of
// TestFaultAroundEquivalence over drawn populations: any policy, workload,
// flavour, fragmentation seed, order-0 failure point and huge-order failure
// rate.
func FuzzFaultAroundEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), false, uint64(0), uint16(0), uint8(0), uint8(2))
	f.Add(uint8(1), uint8(1), true, uint64(3), uint16(500), uint8(20), uint8(1))
	f.Add(uint8(2), uint8(2), false, uint64(9), uint16(3000), uint8(255), uint8(0))
	f.Add(uint8(4), uint8(3), true, uint64(1), uint16(1), uint8(5), uint8(3))
	f.Add(uint8(5), uint8(5), false, uint64(2), uint16(9000), uint8(60), uint8(1))
	workloads := []string{"Redis", "Graph500", "GUPS", "SVM", "Canneal", "Btree", "Memcached"}
	f.Fuzz(func(t *testing.T, policy, wl uint8, stock bool, fragSeed uint64, failAt uint16, rate, extends uint8) {
		c := populationCase{
			workload: workloads[int(wl)%len(workloads)], policy: int(policy) % len(faultPolicies),
			memGB: 1, stock: stock, fragSeed: fragSeed % 16, hugePages: int(rate) % 64,
			traced: rate%2 == 1, failAt: int(failAt), failRate: float64(rate) / 255 / 4,
			extends: int(extends % 4),
		}
		bothWays(t, func() []string { return populate(t, c) })
	})
}
