package trident

// One benchmark per figure and table of the paper's evaluation (DESIGN.md
// §3). Each iteration regenerates the experiment's full data set at
// QuickScale (half-scale footprints, proportionally shrunken TLBs — the
// same footprint-to-TLB-reach regime as the paper's machine). Run the
// cmd/experiments binary for the full-scale version and CSV output.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFigure9 -benchtime 3x

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mmu"
	"repro/internal/pagetable"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func benchExperiment(b *testing.B, run func(Settings) *Table, minRows int) {
	b.Helper()
	s := QuickScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drop memoized results so every iteration measures real simulation
		// work, not cache lookups.
		runner.ResetCache()
		t := run(s)
		if t.NumRows() < minRows {
			b.Fatalf("experiment produced %d rows, want >= %d", t.NumRows(), minRows)
		}
	}
}

// BenchmarkTranslateHotLoop measures the translation hot loop in isolation:
// random references over a 2MB-mapped GB through a Skylake MMU. With the hot
// set far past the TLB's reach shrunk away (it fits), almost every iteration
// is a TLB-first fast-path hit — the case PR 2 optimizes.
func BenchmarkTranslateHotLoop(b *testing.B) {
	pt := pagetable.New()
	for va := uint64(0); va < units.Page1G; va += units.Page2M {
		if err := pt.Map(va, va/units.Page4K, units.Size2M); err != nil {
			b.Fatal(err)
		}
	}
	m := mmu.New(tlb.Skylake())
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Translate(pt, nil, rng.Uint64n(units.Page1G), false) {
			b.Fatal("fault on a fully mapped region")
		}
	}
}

// BenchmarkRunnerScaling measures the worker-pool speedup on a fixed
// simulation grid: the Figure 9 policies over the 1GB-sensitive workloads at
// QuickScale. The memo cache is reset before each run, and the grid's
// configs are distinct, so both runs do identical work. The "speedup"
// metric is sequential time / parallel time at GOMAXPROCS workers; on a
// single-core host it hovers around 1.0 — the interesting output is the
// scaling on multi-core machines.
func BenchmarkRunnerScaling(b *testing.B) {
	s := QuickScale()
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		for _, p := range []sim.PolicyKind{sim.PolicyTHP, sim.PolicyTrident} {
			cfg := sim.Config{
				Workload: w, Policy: p,
				MemGB: s.MemGB, Scale: s.Scale, Accesses: s.Accesses, Seed: s.Seed,
				TLB: s.TLB,
			}
			jobs = append(jobs, runner.Sim(cfg, nil))
		}
	}
	workers := runtime.GOMAXPROCS(0)
	var seq, par time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.ResetCache()
		t0 := time.Now()
		runner.Execute(jobs, runner.Options{Parallelism: 1}).MustOK()
		seq += time.Since(t0)
		runner.ResetCache()
		t1 := time.Now()
		runner.Execute(jobs, runner.Options{Parallelism: workers}).MustOK()
		par += time.Since(t1)
	}
	if par > 0 {
		b.ReportMetric(float64(seq)/float64(par), "speedup")
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkFigure1 regenerates Figure 1 (a+b): native walk cycles and
// performance for all 12 workloads under 4KB / 2MB-THP / 2MB-Hugetlbfs /
// 1GB-Hugetlbfs.
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, Figure1, 48) }

// BenchmarkFigure2 regenerates Figure 2 (a+b): the virtualized page-size
// comparison (4KB+4KB / 2MB+2MB / 1GB+1GB).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, Figure2, 36) }

// BenchmarkFigure3 regenerates Figure 3: 1GB- vs 2MB-mappable virtual
// memory over the execution timeline (Graph500, SVM).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, Figure3, 8) }

// BenchmarkFigure4 regenerates Figure 4: relative TLB-miss frequency across
// VA regions, classified by 1GB-mappability.
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, Figure4, 48) }

// BenchmarkFigure7 regenerates Figure 7: bytes-copied reduction of smart vs
// normal compaction under fragmentation.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, Figure7, 8) }

// BenchmarkFigure9 regenerates Figure 9 (a+b): THP vs HawkEye vs Trident on
// un-fragmented memory.
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, Figure9, 24) }

// BenchmarkFigure10 regenerates Figure 10 (a+b): the same comparison on
// fragmented memory.
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, Figure10, 24) }

// BenchmarkFigure11 regenerates Figure 11 (a+b): the Trident-1Gonly and
// Trident-NC component ablation.
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, Figure11, 64) }

// BenchmarkFigure12 regenerates Figure 12: virtualized THP/HawkEye/Trident
// at both translation levels.
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, Figure12, 24) }

// BenchmarkFigure13 regenerates Figure 13: Trident_pv vs Trident under
// fragmented guest-physical memory with khugepaged capped at 10% vCPU.
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, Figure13, 16) }

// BenchmarkTable3 regenerates Table 3: 1GB/2MB bytes mapped via page-fault
// only, promotion with normal compaction, and promotion with smart
// compaction, un-fragmented and fragmented.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, Table3, 48) }

// BenchmarkTable4 regenerates Table 4: the percentage of 1GB allocation
// attempts failing under fragmentation, at fault time and at promotion.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, Table4, 8) }

// BenchmarkTable5 regenerates Table 5: Redis/Memcached p99 latency under
// 4KB / THP / Trident, with and without fragmentation.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, Table5, 12) }

// BenchmarkZeroFill regenerates the §5.1.2 fault-latency microbenchmark
// (400 ms synchronous vs 2.7 ms async-zeroed 1GB faults, 850 µs 2MB).
func BenchmarkZeroFill(b *testing.B) { benchExperiment(b, FaultLatency, 3) }

// BenchmarkPvPromotion regenerates the §6 promotion-latency comparison
// (copy ≈600 ms, unbatched exchange <30 ms, batched ≈500 µs).
func BenchmarkPvPromotion(b *testing.B) { benchExperiment(b, PvLatency, 3) }

// BenchmarkDirectMap regenerates the §4.3 kernel direct-map experiment
// (1GB vs 2MB direct map, 2–3% OS-workload gain).
func BenchmarkDirectMap(b *testing.B) { benchExperiment(b, DirectMap, 2) }

// BenchmarkTLBSweep runs the extension experiment: Trident's sensitivity to
// the 1GB L2 TLB capacity (Sandy Bridge's 4 entries through Ice Lake's
// 1024).
func BenchmarkTLBSweep(b *testing.B) { benchExperiment(b, TLBSweep, 32) }
