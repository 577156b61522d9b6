package workload_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/fragment"
	"repro/internal/kernel"
	"repro/internal/pagetable"
	"repro/internal/phys"
	"repro/internal/units"
	"repro/internal/vmm"
	"repro/internal/workload"
	"repro/internal/xrand"
	"repro/internal/zerofill"
)

// faultPolicies are the fault paths population runs through. HawkEye's
// fault path is THP's and Trident-NC's is Trident's; internal/sim's
// whole-run equivalence covers both by name. hugePages sizes a Hugetlbfs
// pool in 2MB pages.
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

// populate runs c, through fault-around or, with oracle, fault by fault,
// and renders everything it leaves behind: the errors and stalls of each
// call, every traced fault, the Instance's fault count and latency sum,
// and the machine (machineState).
func populate(t *testing.T, c populationCase, oracle bool) []string {
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
	p = oneByOne(p, oracle)
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
func bothWays(t *testing.T, f func(oracle bool) []string) {
	t.Helper()
	requireEqualLines(t, f(false), f(true))
}

// handleOnly hides the wrapped policy's unexported around method, as
// internal/sim's oracle does, so fault.Around maps nothing and touch takes
// every fault through Handle: the per-fault loop that is fault-around's
// oracle.
type handleOnly struct{ fault.Policy }

// oneByOne wraps p in handleOnly under the oracle.
func oneByOne(p fault.Policy, oracle bool) fault.Policy {
	if oracle {
		return handleOnly{p}
	}
	return p
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
// §5c) to its oracle, touch's per-fault loop: every policy, on fresh and
// fragmented memory, must leave the same machine, stats, op counts and
// latency sums (compared by their bits), call the trace hook for the same
// faults in the same order, and fail at the same fault. A FailAlloc hook
// fails chosen order-0 allocations (the chaos injector exempts order 0),
// so the runs' per-frame consults are pinned too. Whole runs, native and
// virtualized, are internal/sim's TestRunScalarEquivalence.
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
						bothWays(t, func(oracle bool) []string { return populate(t, c, oracle) })
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
				bothWays(t, func(oracle bool) []string {
					k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
					p := oneByOne(faultPolicies[pi].mk(k, 4), oracle)
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
		bothWays(t, func(oracle bool) []string { return populate(t, c, oracle) })
	})
}
