// Package experiments contains one driver per figure and table of the
// paper's evaluation. Each driver enumerates the sim configurations it
// needs as runner.Jobs, executes them on the shared parallel engine
// (internal/runner), and returns a stats.Table whose rows mirror what the
// paper plots; the cmd/experiments binary writes them as CSV, and
// bench_test.go at the repository root exposes each as a testing.B
// benchmark.
//
// Rows are assembled in job-submission order regardless of the worker
// count, so every table is byte-identical to a sequential run (DESIGN.md
// §5, "Parallel execution"). Repeated configurations — across figures and
// within one — are served from the runner's process-wide memo cache.
//
// See DESIGN.md §3 for the experiment index and EXPERIMENTS.md for
// paper-vs-measured numbers.
package experiments

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/workload"
)

// Settings scales an experiment run. The zero value means full scale:
// 32GB machine, ÷10 footprints (workload package defaults), Skylake TLBs,
// 2M sampled references per configuration, GOMAXPROCS-wide parallelism.
type Settings struct {
	MemGB    uint64
	Scale    float64
	Accesses int
	// Seed drives all randomness. 0 means "unset" and resolves to
	// sim.DefaultSeed (see that constant's doc for the contract).
	Seed uint64
	TLB  *tlb.Config
	// Parallelism is the experiment engine's worker-pool size; <= 0 means
	// GOMAXPROCS. Output is byte-identical for any value.
	Parallelism int

	// Ctx, when non-nil, cancels the whole run (cmd/experiments wires its
	// -deadline flag here). Cancelled jobs become Failure records.
	Ctx context.Context
	// Timeout bounds each simulator job individually; 0 = no limit.
	Timeout time.Duration
	// Checkpoint, when non-empty, is the directory of an fs: result store,
	// the durable memo tier behind the in-process cache. Results computed
	// here are published to it, and results a previous run (or another
	// process) published are reloaded instead of recomputed —
	// byte-identically, keyed by the memo fingerprint. Store IO failures
	// degrade to recomputation and durability notes, never to different
	// results (cmd/experiments wires <out>/checkpoint or its -store here).
	Checkpoint string
	// Failures, when non-nil, collects failed jobs so the driver finishes
	// its table with the rows that did complete. When nil, the first
	// failure panics (the pre-Report fail-fast behavior benchmarks and
	// tests rely on).
	Failures *runner.FailureLog

	// Obs, when non-nil, is called once per experiment label to build the
	// observer that collects that experiment's trace and time series
	// (cmd/experiments wires its -trace flag here). It may return nil to
	// leave a given experiment unobserved. Observation never alters
	// results: the report CSVs are byte-identical with or without it.
	Obs func(label string) *obs.Observer

	// Log, when non-nil, receives one structured record per delivered job
	// (experiment, job name, result source, wall ms) through the runner.
	// Like Obs, it never alters results.
	Log *slog.Logger
}

// fill resolves defaults from the sim package's canonical constants, so the
// two layers cannot drift apart.
func (s Settings) fill() Settings {
	if s.MemGB == 0 {
		s.MemGB = sim.DefaultMemGB
	}
	if s.Scale == 0 {
		s.Scale = sim.DefaultScale
	}
	if s.Accesses == 0 {
		s.Accesses = sim.DefaultAccesses
	}
	if s.Seed == 0 {
		s.Seed = sim.DefaultSeed
	}
	return s
}

// Quick returns reduced settings for tests and benchmarks: half-scale
// footprints with ~4× shrunken TLBs. Half scale is the smallest setting at
// which every 1GB-sensitive workload still has ≥1GB-mappable runs, so all
// the paper's mechanisms stay exercised.
func Quick() Settings {
	return Settings{
		MemGB:    16,
		Scale:    0.5,
		Accesses: 150_000,
		Seed:     1,
		TLB:      ScaledTLB(),
	}
}

// ScaledTLB returns translation caches shrunken 2× from Skylake, matching
// Quick()'s half-scale footprints so the footprint-to-reach regime of the
// paper's machine is preserved (e.g. the 2MB reach still covers the
// 1GB-insensitive workloads' hot sets but not the sensitive ones').
func ScaledTLB() *tlb.Config {
	return &tlb.Config{
		L1: [units.NumPageSizes]tlb.Geometry{
			units.Size4K: {Sets: 8, Ways: 4},
			units.Size2M: {Sets: 4, Ways: 4},
			units.Size1G: {Sets: 1, Ways: 2},
		},
		L2Shared: tlb.Geometry{Sets: 64, Ways: 12}, // 768 entries → 1.5GB 2MB reach
		L2Huge:   tlb.Geometry{Sets: 2, Ways: 4},   // with L1: 10GB 1GB reach
		PWC: [3]tlb.Geometry{
			{Sets: 1, Ways: 16},
			{Sets: 1, Ways: 2},
			{Sets: 1, Ways: 2},
		},
	}
}

func (s Settings) config(w *workload.Spec, p sim.PolicyKind) sim.Config {
	return sim.Config{
		Workload: w,
		Policy:   p,
		MemGB:    s.MemGB,
		Scale:    s.Scale,
		Accesses: s.Accesses,
		Seed:     s.Seed,
		TLB:      s.TLB,
	}
}

// run executes jobs on the shared engine, honoring s.Parallelism. The label
// names the experiment and is attached to every job as a pprof label, so CPU
// profiles of a full run can be sliced per figure (and, via the per-job
// workload/policy label the runner adds, per grid cell).
func (s Settings) run(label string, jobs []runner.Job) {
	var ob *obs.Observer
	if s.Obs != nil {
		ob = s.Obs(label)
	}
	// A store that cannot open or flush costs durability, not results: the
	// batch runs (or has run) regardless, and the trouble becomes a note.
	var storeErr error
	var st *store.Store
	if s.Checkpoint != "" {
		if st, storeErr = store.Open("fs:" + s.Checkpoint); st != nil {
			st.SetLogger(s.Log)
		}
	}
	rep := runner.Execute(jobs, runner.Options{
		Parallelism: s.Parallelism,
		Label:       label,
		Context:     s.Ctx,
		JobTimeout:  s.Timeout,
		Store:       st,
		Obs:         ob,
		Log:         s.Log,
	})
	if st != nil {
		storeErr = st.Close()
	}
	if storeErr != nil {
		rep.Notes = append(rep.Notes, runner.Failure{
			Experiment: label, Name: "store", Phase: "durability", Err: storeErr,
		})
	}
	if err := ob.Close(); err != nil {
		// Losing a trace must not discard the experiment's rows: record it
		// like a failed job and let the driver finish its table.
		rep.Failures = append(rep.Failures, runner.Failure{
			Experiment: label, Name: "trace", Phase: "obs", Err: err,
		})
	}
	if s.Failures != nil {
		s.Failures.Add(rep)
		return
	}
	rep.MustOK()
}

// gb renders bytes as a GB quantity with two decimals (Table 3's unit).
func gb(b uint64) float64 { return float64(b) / float64(units.GiB) }

// Figure1 reproduces Figures 1a and 1b: native execution of all 12
// workloads under 4KB, 2MB-THP, 2MB-Hugetlbfs and 1GB-Hugetlbfs, reporting
// the fraction of cycles in page walks (normalized to 4KB) and performance
// (normalized to 4KB).
func Figure1(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 1: page sizes under native execution",
		"workload", "config", "walk_frac", "walk_frac_norm", "perf_norm", "sensitive_1g")
	policies := []sim.PolicyKind{sim.Policy4K, sim.PolicyTHP, sim.PolicyHugetlbfs2M, sim.PolicyHugetlbfs1G}
	var jobs []runner.Job
	for _, w := range workload.All() {
		var base *sim.Result
		for _, p := range policies {
			jobs = append(jobs, runner.Sim(s.config(w, p), func(res *sim.Result) {
				if p == sim.Policy4K {
					base = res
				}
				t.AddRow(w.Name, res.Policy,
					res.Perf.WalkCycleFraction,
					ratio(res.Perf.WalkCycleFraction, base.Perf.WalkCycleFraction),
					ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess),
					w.Sensitive1G)
			}))
		}
	}
	s.run("figure1", jobs)
	return t
}

// Figure2 reproduces Figures 2a and 2b: virtualized execution with matched
// page sizes at both translation levels (4KB+4KB, 2MB+2MB, 1GB+1GB).
func Figure2(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 2: page sizes under virtualization",
		"workload", "config", "walk_frac", "walk_frac_norm", "perf_norm", "sensitive_1g")
	policies := []sim.PolicyKind{sim.Policy4K, sim.PolicyHugetlbfs2M, sim.PolicyHugetlbfs1G}
	labels := map[sim.PolicyKind]string{
		sim.Policy4K:          "4KB+4KB",
		sim.PolicyHugetlbfs2M: "2MB+2MB",
		sim.PolicyHugetlbfs1G: "1GB+1GB",
	}
	var jobs []runner.Job
	for _, w := range workload.All() {
		var base *sim.Result
		for _, p := range policies {
			cfg := s.config(w, p)
			cfg.Virtualized = true
			cfg.HostPolicy = p
			jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
				if p == sim.Policy4K {
					base = res
				}
				t.AddRow(w.Name, labels[p],
					res.Perf.WalkCycleFraction,
					ratio(res.Perf.WalkCycleFraction, base.Perf.WalkCycleFraction),
					ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess),
					w.Sensitive1G)
			}))
		}
	}
	s.run("figure2", jobs)
	return t
}

// Figure9 reproduces Figures 9a/9b: THP vs HawkEye vs Trident on the eight
// 1GB-sensitive workloads with un-fragmented physical memory. Values are
// normalized to THP.
func Figure9(s Settings) *stats.Table {
	return compareSystems(s, "figure9", "Figure 9: performance under no fragmentation", false)
}

// Figure10 reproduces Figures 10a/10b: the same comparison with physical
// memory fragmented per §3.
func Figure10(s Settings) *stats.Table {
	return compareSystems(s, "figure10", "Figure 10: performance under fragmentation", true)
}

func compareSystems(s Settings, label, title string, frag bool) *stats.Table {
	s = s.fill()
	t := stats.NewTable(title,
		"workload", "config", "perf_norm", "walk_frac_norm", "mapped_1g_gb", "mapped_2m_gb")
	policies := []sim.PolicyKind{sim.PolicyTHP, sim.PolicyHawkEye, sim.PolicyTrident}
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		var base *sim.Result
		for _, p := range policies {
			cfg := s.config(w, p)
			cfg.Fragment = frag
			jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
				if p == sim.PolicyTHP {
					base = res
				}
				t.AddRow(w.Name, res.Policy,
					ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess),
					ratio(res.Perf.WalkCycleFraction, base.Perf.WalkCycleFraction),
					gb(res.MappedFinal[units.Size1G]),
					gb(res.MappedFinal[units.Size2M]))
			}))
		}
	}
	s.run(label, jobs)
	return t
}

// Figure11 reproduces Figures 11a/11b: the component ablation —
// Trident-1Gonly (no 2MB pages) and Trident-NC (normal instead of smart
// compaction) against full Trident, with and without fragmentation.
func Figure11(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 11: Trident component analysis",
		"workload", "fragmented", "config", "perf_norm")
	policies := []sim.PolicyKind{
		sim.PolicyTHP, sim.PolicyTrident1GOnly, sim.PolicyTridentNC, sim.PolicyTrident,
	}
	var jobs []runner.Job
	for _, frag := range []bool{false, true} {
		for _, w := range workload.Sensitive() {
			var base *sim.Result
			for _, p := range policies {
				cfg := s.config(w, p)
				cfg.Fragment = frag
				jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
					if p == sim.PolicyTHP {
						base = res
					}
					t.AddRow(w.Name, frag, res.Policy,
						ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess))
				}))
			}
		}
	}
	s.run("figure11", jobs)
	return t
}

// Table3 reproduces Table 3: bytes mapped as 1GB and 2MB pages under the
// three allocation mechanisms — page-fault only, promotion with normal
// compaction, promotion with smart compaction — on un-fragmented and
// fragmented memory.
func Table3(s Settings) *stats.Table {
	s = s.fill()
	s.Accesses = minInt(s.Accesses, 50_000) // mapping state, not perf, is measured
	t := stats.NewTable("Table 3: pages allocated by mechanism",
		"workload", "fragmented", "mechanism", "mapped_1g_gb", "mapped_2m_gb", "footprint_gb")
	type mech struct {
		name    string
		policy  sim.PolicyKind
		noDaemo bool
	}
	mechs := []mech{
		{"page-fault-only", sim.PolicyTrident, true},
		{"promotion-normal-compaction", sim.PolicyTridentNC, false},
		{"promotion-smart-compaction", sim.PolicyTrident, false},
	}
	var jobs []runner.Job
	for _, frag := range []bool{false, true} {
		for _, w := range workload.Sensitive() {
			for _, m := range mechs {
				cfg := s.config(w, m.policy)
				cfg.Fragment = frag
				cfg.DisablePromotion = m.noDaemo
				jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
					mapped := res.MappedFinal
					if m.noDaemo {
						mapped = res.MappedAfterFaults
					}
					t.AddRow(w.Name, frag, m.name,
						gb(mapped[units.Size1G]), gb(mapped[units.Size2M]),
						gb(res.HeapBytes))
				}))
			}
		}
	}
	s.run("table3", jobs)
	return t
}

// Figure7 reproduces Figure 7: the percentage reduction in bytes copied by
// smart compaction relative to normal compaction while creating 1GB chunks
// on fragmented memory.
func Figure7(s Settings) *stats.Table {
	s = s.fill()
	s.Accesses = minInt(s.Accesses, 50_000)
	t := stats.NewTable("Figure 7: bytes-copied reduction from smart compaction",
		"workload", "normal_copied_gb", "smart_copied_gb", "reduction_pct")
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		nc := s.config(w, sim.PolicyTridentNC)
		nc.Fragment = true
		sm := s.config(w, sim.PolicyTrident)
		sm.Fragment = true

		var ncRes *sim.Result
		jobs = append(jobs, runner.Sim(nc, func(res *sim.Result) { ncRes = res }))
		jobs = append(jobs, runner.Sim(sm, func(smRes *sim.Result) {
			// Compare the 1GB-chunk-creation compactors only: Trident-NC's
			// sequential 1GB compactor vs Trident's smart compactor. (Both
			// configurations also run identical 2MB compaction for khugepaged's
			// 2MB fallback; including it would dilute the comparison.)
			var normalBytes, smartBytes uint64
			if ncRes.Normal1GCompact != nil {
				normalBytes = ncRes.Normal1GCompact.BytesCopied
			}
			if smRes.SmartCompact != nil {
				smartBytes = smRes.SmartCompact.BytesCopied
			}
			red := 0.0
			if normalBytes > 0 {
				red = (1 - float64(smartBytes)/float64(normalBytes)) * 100
				if red < 0 {
					red = 0
				}
			}
			t.AddRow(w.Name, gb(normalBytes), gb(smartBytes), red)
		}))
	}
	s.run("figure7", jobs)
	return t
}

// Table4 reproduces Table 4: the percentage of 1GB allocation attempts that
// fail for lack of contiguous physical memory, at page-fault time and
// during promotion, on fragmented memory.
func Table4(s Settings) *stats.Table {
	s = s.fill()
	s.Accesses = minInt(s.Accesses, 50_000)
	t := stats.NewTable("Table 4: 1GB allocation failures under fragmentation",
		"workload", "fault_attempts", "fault_fail_pct", "promo_attempts", "promo_fail_pct")
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		cfg := s.config(w, sim.PolicyTrident)
		cfg.Fragment = true
		jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
			faultPct := "NA"
			if res.Fault.Attempts1G > 0 {
				faultPct = fmt.Sprintf("%.0f", 100*float64(res.Fault.Failed1G)/float64(res.Fault.Attempts1G))
			}
			promoPct := "NA"
			if res.Promote != nil && res.Promote.Attempts1G > 0 {
				promoPct = fmt.Sprintf("%.0f",
					100*float64(res.Promote.Failed1G)/float64(res.Promote.Attempts1G))
			}
			var pa uint64
			if res.Promote != nil {
				pa = res.Promote.Attempts1G
			}
			t.AddRow(w.Name, res.Fault.Attempts1G, faultPct, pa, promoPct)
		}))
	}
	s.run("table4", jobs)
	return t
}

// Table5 reproduces Table 5: p99 request latency (ms) for Redis and
// Memcached under 4KB, THP and Trident, with and without fragmentation.
func Table5(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Table 5: tail latency (ms)",
		"workload", "fragmented", "config", "p99_ms")
	var jobs []runner.Job
	for _, name := range []string{"Redis", "Memcached"} {
		w, _ := workload.ByName(name)
		for _, frag := range []bool{false, true} {
			for _, p := range []sim.PolicyKind{sim.Policy4K, sim.PolicyTHP, sim.PolicyTrident} {
				cfg := s.config(w, p)
				cfg.Fragment = frag
				jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
					t.AddRow(w.Name, frag, res.Policy, res.TailP99Ns/1e6)
				}))
			}
		}
	}
	s.run("table5", jobs)
	return t
}

// Figure12 reproduces Figure 12: virtualized execution (no fragmentation)
// with the same system at guest and hypervisor: THP+THP, HawkEye+HawkEye,
// Trident+Trident. Normalized to THP+THP.
func Figure12(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 12: performance under virtualization",
		"workload", "config", "perf_norm")
	policies := []sim.PolicyKind{sim.PolicyTHP, sim.PolicyHawkEye, sim.PolicyTrident}
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		var base *sim.Result
		for _, p := range policies {
			cfg := s.config(w, p)
			cfg.Virtualized = true
			cfg.HostPolicy = p
			jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
				if p == sim.PolicyTHP {
					base = res
				}
				t.AddRow(w.Name, res.Policy,
					ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess))
			}))
		}
	}
	s.run("figure12", jobs)
	return t
}

// Figure13 reproduces Figure 13: fragmented guest-physical memory with
// khugepaged capped at 10% of a vCPU — Trident+Trident vs
// Trident_pv+Trident_pv, normalized to THP+THP.
func Figure13(s Settings) *stats.Table {
	s = s.fill()
	t := stats.NewTable("Figure 13: Trident_pv under fragmented gPA",
		"workload", "config", "perf_norm", "pages_exchanged")
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		baseCfg := s.config(w, sim.PolicyTHP)
		baseCfg.Virtualized = true
		baseCfg.HostPolicy = sim.PolicyTHP
		baseCfg.Fragment = true
		baseCfg.KhugepagedBudgetFrac = 0.10

		var base *sim.Result
		jobs = append(jobs, runner.Sim(baseCfg, func(res *sim.Result) { base = res }))

		for _, pv := range []bool{false, true} {
			cfg := s.config(w, sim.PolicyTrident)
			cfg.Virtualized = true
			cfg.HostPolicy = sim.PolicyTrident
			cfg.Fragment = true
			cfg.KhugepagedBudgetFrac = 0.10
			cfg.Pv = pv
			jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
				var exch uint64
				if res.VirtStats != nil {
					exch = res.VirtStats.PagesExchanged
				}
				t.AddRow(w.Name, res.Policy,
					ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess), exch)
			}))
		}
	}
	s.run("figure13", jobs)
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
