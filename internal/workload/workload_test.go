package workload

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/stream"
	"repro/internal/units"
	"repro/internal/zerofill"
)

const testScale = 1.0 / 16

func instantiate(t *testing.T, name string, gb uint64, mk func(*kernel.Kernel) fault.Policy) (*Instance, fault.Policy) {
	t.Helper()
	spec, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	k := kernel.New(gb*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask(name)
	policy := mk(k)
	inst, err := spec.Instantiate(k, task, policy, 42, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return inst, policy
}

func thp(k *kernel.Kernel) fault.Policy { return fault.NewTHP(k) }

func trident(k *kernel.Kernel) fault.Policy {
	z := zerofill.New(k)
	z.Refill(1 << 20)
	return fault.NewTrident(k, z)
}

func TestAllSpecsComplete(t *testing.T) {
	specs := All()
	if len(specs) != 12 {
		t.Fatalf("got %d workloads, want 12 (Table 2)", len(specs))
	}
	names := map[string]bool{}
	sensitive := 0
	for _, s := range specs {
		if s.Name == "" || s.Footprint == 0 || s.PaperFootprint == 0 || s.Threads == 0 {
			t.Errorf("%q: incomplete spec", s.Name)
		}
		if s.Model.BaseCyclesPerAccess <= 0 || s.Model.Overlap <= 0 || s.Model.Overlap > 1 {
			t.Errorf("%q: bad model %+v", s.Name, s.Model)
		}
		if names[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		names[s.Name] = true
		if s.Sensitive1G {
			sensitive++
		}
	}
	if sensitive != 8 {
		t.Errorf("%d sensitive workloads, want the shaded eight", sensitive)
	}
	if len(Sensitive()) != 8 {
		t.Error("Sensitive() mismatch")
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("GUPS"); !ok {
		t.Error("GUPS missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("bogus name found")
	}
}

func TestInstantiateFootprint(t *testing.T) {
	inst, _ := instantiate(t, "GUPS", 2, thp)
	want := scaleBytes(inst.Spec.Footprint, testScale)
	got := inst.HeapBytes()
	if got < want || got > want*105/100 {
		t.Errorf("heap = %d, want ≈%d", got, want)
	}
	// All heap bytes are mapped (touched at instantiation); allow the tiny
	// untouched gap pages.
	mapped := inst.Task.AS.PT.TotalMappedBytes()
	if mapped < want {
		t.Errorf("mapped = %d < footprint %d", mapped, want)
	}
}

// instantiateAt is instantiate with an explicit scale (1GB-granularity
// behaviour needs chunks of at least 1GB, i.e. a larger scale).
func instantiateAt(t *testing.T, name string, gb uint64, scale float64, mk func(*kernel.Kernel) fault.Policy) (*Instance, fault.Policy) {
	t.Helper()
	spec, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	k := kernel.New(gb*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask(name)
	policy := mk(k)
	inst, err := spec.Instantiate(k, task, policy, 42, scale)
	if err != nil {
		t.Fatal(err)
	}
	return inst, policy
}

func TestPreallocWorkloadGets1GAtFault(t *testing.T) {
	inst, policy := instantiateAt(t, "GUPS", 6, 0.5, trident)
	if inst.Task.AS.PT.MappedPages(units.Size1G) == 0 {
		t.Error("pre-allocating workload got no 1GB pages at fault time")
	}
	if policy.FaultStats().Faults[units.Size1G] == 0 {
		t.Error("no 1GB faults recorded")
	}
}

func TestIncrementalWorkloadGetsNo1GAtFault(t *testing.T) {
	// Table 3: Redis's fault handler never allocates a single 1GB page.
	inst, _ := instantiate(t, "Redis", 2, trident)
	if got := inst.Task.AS.PT.MappedPages(units.Size1G); got != 0 {
		t.Errorf("incremental workload got %d 1GB pages at fault time", got)
	}
}

func TestChurnCreatesFringe(t *testing.T) {
	inst, _ := instantiate(t, "Graph500", 2, thp)
	if inst.FringeBytes() == 0 {
		t.Error("Graph500 has no 1GB-unmappable fringe (Figure 3 gap missing)")
	}
	// The gap: 2MB-mappable exceeds 1GB-mappable.
	m2 := inst.Task.AS.MappableBytes(units.Size2M)
	m1 := inst.Task.AS.MappableBytes(units.Size1G)
	if m1 >= m2 {
		t.Errorf("no mappability gap: 1G=%d 2M=%d", m1, m2)
	}
}

func TestPreallocHasMinimalFringe(t *testing.T) {
	inst, _ := instantiateAt(t, "XSBench", 8, 0.5, thp)
	if frac := float64(inst.FringeBytes()) / float64(inst.HeapBytes()); frac > 0.1 {
		t.Errorf("pre-allocated workload fringe fraction = %v", frac)
	}
}

func TestNextStaysInBounds(t *testing.T) {
	inst, _ := instantiate(t, "Redis", 2, thp)
	stackHits := 0
	for i := 0; i < 20000; i++ {
		va, _ := inst.Next()
		if va >= inst.StackVA && va < inst.StackVA+inst.StackBytes {
			stackHits++
			continue
		}
		if _, ok := inst.Task.AS.FindVMA(va); !ok {
			t.Fatalf("access %#x outside any VMA", va)
		}
	}
	// Redis: ~8% stack accesses.
	if stackHits < 1000 || stackHits > 2600 {
		t.Errorf("stack hits = %d of 20000, want ≈1600", stackHits)
	}
}

func TestNextDeterminism(t *testing.T) {
	a, _ := instantiate(t, "GUPS", 2, thp)
	b, _ := instantiate(t, "GUPS", 2, thp)
	for i := 0; i < 1000; i++ {
		va1, w1 := a.Next()
		va2, w2 := b.Next()
		if va1 != va2 || w1 != w2 {
			t.Fatalf("divergence at access %d", i)
		}
	}
}

func TestHotWindowConcentration(t *testing.T) {
	inst, _ := instantiate(t, "CC", 2, thp)
	hot := scaleBytes(inst.Spec.Access.HotBytes, testScale)
	inHot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		va, _ := inst.Next()
		// The hot window is the VA-order prefix of the heap.
		pos := uint64(0)
		found := false
		for j, start := range inst.heap.starts {
			segEnd := start + segSize(&inst.heap, j)
			if va >= start && va < segEnd {
				pos = inst.heap.cum[j] + (va - start)
				found = true
				break
			}
		}
		if found && pos < hot {
			inHot++
		}
	}
	if frac := float64(inHot) / n; frac < 0.85 {
		t.Errorf("hot-window fraction = %v, want ≥0.85", frac)
	}
}

func segSize(s *segments, i int) uint64 {
	if i+1 < len(s.cum) {
		return s.cum[i+1] - s.cum[i]
	}
	return s.total - s.cum[i]
}

func TestFaultLatenciesRecorded(t *testing.T) {
	inst, _ := instantiate(t, "Btree", 2, thp)
	if inst.Faults == 0 {
		t.Fatal("no faults recorded during population")
	}
	if inst.FaultNs <= 0 {
		t.Fatalf("population faults recorded non-positive total latency: %v", inst.FaultNs)
	}
	if avg := inst.FaultNs / float64(inst.Faults); avg <= 0 {
		t.Fatalf("non-positive mean fault latency: %v", avg)
	}
}

func TestInstantiateBadScale(t *testing.T) {
	spec, _ := ByName("GUPS")
	k := kernel.New(units.Page1G, units.TridentMaxOrder)
	if _, err := spec.Instantiate(k, k.NewTask("x"), thp(k), 1, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

// Instantiating every workload under both THP and Trident must succeed and
// preserve the invariant: mapped bytes ≈ heap + stack, no frame leaks.
func TestInstantiateAllWorkloads(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
			task := k.NewTask(spec.Name)
			inst, err := spec.Instantiate(k, task, trident(k), 7, testScale)
			if err != nil {
				t.Fatal(err)
			}
			mapped := task.AS.PT.TotalMappedBytes()
			if mapped == 0 {
				t.Fatal("nothing mapped")
			}
			if k.Mem.AllocatedFrames()*units.Page4K < mapped {
				t.Error("fewer frames allocated than mapped")
			}
			for i := 0; i < 100; i++ {
				if va, _ := inst.Next(); va == 0 {
					t.Fatal("zero VA generated")
				}
			}
		})
	}
}

func TestExtendAddsAccessibleMemory(t *testing.T) {
	inst, policy := instantiate(t, "Redis", 2, thp)
	before := inst.HeapBytes()
	stall, err := inst.Extend(policy, 256*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if stall <= 0 {
		t.Error("extension faulted for free")
	}
	if inst.HeapBytes() != before+256*units.KiB {
		t.Errorf("heap = %d, want %d", inst.HeapBytes(), before+256*units.KiB)
	}
}

func TestObservedInstantiationEvents(t *testing.T) {
	spec, _ := ByName("Graph500")
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("g")
	events := map[string]int{}
	_, err := spec.InstantiateObserved(k, task, thp(k), 1, testScale, func(stage string) {
		events[stage]++
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"prealloc", "piece", "churn"} {
		if events[stage] == 0 {
			t.Errorf("no %q events observed", stage)
		}
	}
}

func TestWriteFractionRoughlyHonored(t *testing.T) {
	inst, _ := instantiate(t, "GUPS", 2, thp)
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, w := inst.Next(); w {
			writes++
		}
	}
	frac := float64(writes) / n
	want := inst.Spec.Access.WriteFrac
	if frac < want-0.05 || frac > want+0.05 {
		t.Errorf("write fraction = %v, want ≈%v", frac, want)
	}
}

// TestNextBatchDeterminism pins the batch-grouping contract the sim loop
// relies on when it draws its reference stream in fixed-size batches with a
// short tail: the run stream must not depend on how draws are grouped into
// NextRuns calls. Two instances of the same (workload, seed) draw the same
// total, one in deliberately ragged batch sizes and one in a single call;
// once runs split by a batch boundary are rejoined (a boundary can cut a
// run, never move a draw), both sequences must match run for run — leading
// VA, write flag and Len.
func TestNextBatchDeterminism(t *testing.T) {
	for _, name := range []string{"GUPS", "Redis", "SVM"} {
		t.Run(name, func(t *testing.T) {
			ragged, _ := instantiate(t, name, 2, thp)
			whole, _ := instantiate(t, name, 2, thp)

			// Ragged sizes: primes and powers, including 1, so draws land
			// on every alignment relative to the batch boundary.
			sizes := []int{1, 3, 17, 256, 7, 64, 1000, 5, 129, 2}
			pageShift := units.Size4K.Shift()
			var joined []stream.Run
			total := 0
			for _, n := range sizes {
				for k, r := range ragged.NextRuns(nil, n) {
					last := len(joined) - 1
					if k == 0 && last >= 0 && joined[last].VA>>pageShift == r.VA>>pageShift {
						joined[last].Len += r.Len
						continue
					}
					joined = append(joined, r)
				}
				total += n
			}
			want := whole.NextRuns(nil, total)
			if len(joined) != len(want) {
				t.Fatalf("ragged batches give %d runs, one batch gives %d", len(joined), len(want))
			}
			for k := range want {
				if joined[k] != want[k] {
					t.Fatalf("run %d: ragged batches %+v != one batch %+v", k, joined[k], want[k])
				}
			}
		})
	}
}

// TestNextRunsDeterminism pins the run-coalesced draw contract against the
// scalar draw oracle: NextRuns must consume exactly the raw values n Next
// calls would and produce maximal runs whose leading reference is Next's
// draw verbatim (VA and write flag) and whose expansion — Len references,
// all in the leading reference's page — reproduces Next's page sequence
// bit-for-bit, for any sequence of ragged draw counts. Two instances of the
// same (workload, seed) are advanced in lockstep, one through Next (the
// reference stream) and one through NextRuns, so the runs instance cannot
// drift from the scalar stream at draw-count boundaries (accept/reject
// loops inside a draw straddle them).
func TestNextRunsDeterminism(t *testing.T) {
	for _, name := range []string{"GUPS", "Redis", "SVM"} {
		t.Run(name, func(t *testing.T) {
			scalar, _ := instantiate(t, name, 2, thp)
			coalesced, _ := instantiate(t, name, 2, thp)

			// Ragged counts: primes and powers, including 1, so runs end
			// on every alignment relative to the draw-count boundary.
			sizes := []int{1, 3, 17, 256, 7, 64, 1000, 5, 129, 2}
			want := make([]stream.Access, 1000)
			runBuf := make([]stream.Run, 0, 1000)
			pageShift := units.Size4K.Shift()
			drawn := 0
			for _, n := range sizes {
				for i := range want[:n] {
					va, write := scalar.Next()
					want[i] = stream.Access{VA: va, Write: write}
				}
				runs := coalesced.NextRuns(runBuf, n)
				total := 0
				i := 0 // position within want[:n]
				for k, r := range runs {
					if r.Len < 1 {
						t.Fatalf("run %d has Len %d", k, r.Len)
					}
					// The leading reference is the draw itself, verbatim.
					if r.VA != want[i].VA || r.Write != want[i].Write {
						t.Fatalf("draw %d: run lead (%#x, %v) != scalar (%#x, %v)",
							drawn+i, r.VA, r.Write, want[i].VA, want[i].Write)
					}
					// Every coalesced reference shares the leading page.
					for j := 1; j < r.Len; j++ {
						if want[i+j].VA>>pageShift != r.VA>>pageShift {
							t.Fatalf("draw %d: coalesced into run at page %#x but scalar page is %#x",
								drawn+i+j, r.VA>>pageShift, want[i+j].VA>>pageShift)
						}
					}
					// Runs are maximal: the next run starts a new page.
					if k+1 < len(runs) && runs[k+1].VA>>pageShift == r.VA>>pageShift {
						t.Fatalf("run %d not maximal: next run shares page %#x", k, r.VA>>pageShift)
					}
					i += r.Len
					total += r.Len
				}
				if total != n {
					t.Fatalf("NextRuns(%d): Len fields sum to %d", n, total)
				}
				drawn += n
			}
		})
	}
}
