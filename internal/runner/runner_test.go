package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/units"
	"repro/internal/workload"
)

// tinyTLB mirrors the shrunken geometry sim's own tests use, so a cached run
// costs milliseconds rather than seconds.
func tinyTLB() *tlb.Config {
	return &tlb.Config{
		L1: [units.NumPageSizes]tlb.Geometry{
			units.Size4K: {Sets: 2, Ways: 2},
			units.Size2M: {Sets: 1, Ways: 2},
			units.Size1G: {Sets: 1, Ways: 2},
		},
		L2Shared: tlb.Geometry{Sets: 16, Ways: 6},
		L2Huge:   tlb.Geometry{Sets: 1, Ways: 4},
		PWC: [3]tlb.Geometry{
			{Sets: 1, Ways: 4},
			{Sets: 1, Ways: 2},
			{Sets: 1, Ways: 2},
		},
	}
}

func tinyConfig(t *testing.T) sim.Config {
	t.Helper()
	spec, ok := workload.ByName("GUPS")
	if !ok {
		t.Fatal("unknown workload GUPS")
	}
	return sim.Config{
		Workload: spec,
		Policy:   sim.PolicyTHP,
		MemGB:    8,
		Scale:    0.25,
		Accesses: 30_000,
		Seed:     3,
		TLB:      tinyTLB(),
	}
}

// TestMemoCacheSingleExecution: submitting the same config twice — across two
// Execute calls, as figures sharing a config do — must run sim.Run exactly
// once. The miss counter counts actual executions through the cache.
func TestMemoCacheSingleExecution(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)

	var first, second *sim.Result
	Execute([]Job{Sim(cfg, func(r *sim.Result) { first = r })}, Options{Parallelism: 2})
	Execute([]Job{Sim(cfg, func(r *sim.Result) { second = r })}, Options{Parallelism: 2})

	cs := Cache()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("got %d misses / %d hits, want 1 / 1 (repeated config must run once)", cs.Misses, cs.Hits)
	}
	if first == nil || first != second {
		t.Fatalf("cache hit must return the same *sim.Result (got %p, %p)", first, second)
	}
}

// TestMemoCacheNormalizesDefaults: an explicit config and one relying on
// defaults must share a cache entry when they resolve identically, and the
// key embeds the workload spec by value so fresh pointers to equal specs hit.
func TestMemoCacheNormalizesDefaults(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	cfg.Seed = 0 // defaults to sim.DefaultSeed

	explicit := tinyConfig(t)
	explicit.Seed = sim.DefaultSeed
	spec := *explicit.Workload // fresh pointer, equal value
	explicit.Workload = &spec

	Execute([]Job{
		Sim(cfg, nil),
		Sim(explicit, nil),
	}, Options{Parallelism: 1})

	cs := Cache()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("got %d misses / %d hits, want 1 / 1 (normalized configs must share an entry)", cs.Misses, cs.Hits)
	}
}

// TestNoCacheBypass: Options.NoCache must execute every job without touching
// the cache counters.
func TestNoCacheBypass(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	jobs := []Job{Sim(cfg, nil), Sim(cfg, nil)}
	Execute(jobs, Options{Parallelism: 2, NoCache: true})
	cs := Cache()
	if cs.Misses != 0 || cs.Hits != 0 || cs.Entries != 0 {
		t.Fatalf("NoCache run touched the cache: %+v", cs)
	}
}

// TestSubmissionOrderCallbacks: callbacks must arrive in submission order for
// any worker count, even when earlier jobs finish last.
func TestSubmissionOrderCallbacks(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var running atomic.Int64
		var order []int
		var jobs []Job
		const n = 32
		for i := 0; i < n; i++ {
			i := i
			jobs = append(jobs, Func(func() any {
				// Spin until at least one other worker is active when
				// possible, perturbing completion order.
				running.Add(1)
				for j := 0; j < (n-i)*1000; j++ {
					_ = j
				}
				return i * i
			}, func(v any) {
				order = append(order, v.(int))
			}))
		}
		Execute(jobs, Options{Parallelism: workers})
		for i := 0; i < n; i++ {
			if order[i] != i*i {
				t.Fatalf("parallelism %d: commit %d got %d, want %d", workers, i, order[i], i*i)
			}
		}
	}
}

// TestFailuresInSubmissionOrder: when several jobs fail, Report.Failures is
// ordered by submission index regardless of completion order, and MustOK
// surfaces the lowest-index failure.
func TestFailuresInSubmissionOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, Func(func() any {
			if i >= 3 {
				panic(fmt.Sprintf("job %d failed", i))
			}
			return nil
		}, nil))
	}
	rep := Execute(jobs, Options{Parallelism: 8})
	if len(rep.Failures) != 5 {
		t.Fatalf("got %d failures, want 5: %+v", len(rep.Failures), rep.Failures)
	}
	for k := range rep.Failures {
		if rep.Failures[k].Index != k+3 {
			t.Fatalf("failure %d has index %d, want %d (submission order)", k, rep.Failures[k].Index, k+3)
		}
	}
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(fmt.Sprint(p), "job 3") {
			t.Fatalf("MustOK must re-raise the lowest-index failure (job 3), got %v", p)
		}
	}()
	rep.MustOK()
}

// TestFailureIsolation is the contract the experiments command depends on:
// one job of three panics, the other two still complete and their callbacks
// fire, and the Failure record is fully populated.
func TestFailureIsolation(t *testing.T) {
	var got []int
	jobs := []Job{
		Func(func() any { return 0 }, func(v any) { got = append(got, v.(int)) }),
		Func(func() any { panic("injected failure") }, nil),
		Func(func() any { return 2 }, func(v any) { got = append(got, v.(int)) }),
	}
	rep := Execute(jobs, Options{Parallelism: 3, Label: "iso"})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("surviving callbacks got %v, want [0 2]", got)
	}
	if len(rep.Failures) != 1 {
		t.Fatalf("got %d failures, want 1: %+v", len(rep.Failures), rep.Failures)
	}
	f := rep.Failures[0]
	if f.Index != 1 || f.Phase != "run" || f.Experiment != "iso" || f.Name != "func" {
		t.Fatalf("failure record wrong: %+v", f)
	}
	if f.Panic != any("injected failure") {
		t.Fatalf("panic value = %v", f.Panic)
	}
	if !strings.Contains(f.Stack, "runner_test") {
		t.Fatalf("stack does not reach the panic site:\n%s", f.Stack)
	}
	if f.Cancelled() {
		t.Fatal("a panic is not a cancellation")
	}
}

// TestCallbackPanicCaptured: a panic inside a submission-order callback —
// the driver-dereferences-failed-baseline case — is captured as a
// build/commit-phase failure and later callbacks still run.
func TestCallbackPanicCaptured(t *testing.T) {
	var after bool
	jobs := []Job{
		Func(func() any { return nil }, func(any) {
			var base *sim.Result
			_ = base.Workload // nil deref: baseline job "failed"
		}),
		Func(func() any { return nil }, func(any) { after = true }),
	}
	rep := Execute(jobs, Options{Parallelism: 2})
	if !after {
		t.Fatal("callback after the panicking one did not run")
	}
	if len(rep.Failures) != 1 || rep.Failures[0].Phase != "commit" || rep.Failures[0].Panic == nil {
		t.Fatalf("expected one commit-phase panic failure, got %+v", rep.Failures)
	}
}

// TestCancelledBatchSkips: a cancelled context stops unstarted jobs, which
// are reported as skipped cancellations rather than executed.
func TestCancelledBatchSkips(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	jobs := []Job{
		Func(func() any { ran.Add(1); return nil }, nil),
		Func(func() any { ran.Add(1); return nil }, nil),
		Func(func() any { ran.Add(1); return nil }, nil),
	}
	rep := Execute(jobs, Options{Parallelism: 2, Context: ctx})
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
	if len(rep.Failures) != 3 {
		t.Fatalf("got %d failures, want 3", len(rep.Failures))
	}
	for i := range rep.Failures {
		f := &rep.Failures[i]
		if f.Phase != "skipped" || !f.Cancelled() {
			t.Fatalf("failure %d: phase %q, err %v; want a skipped cancellation", i, f.Phase, f.Err)
		}
	}
}

// TestJobTimeoutNotCached: a job over its per-job timeout fails with a
// cancellation AND leaves no cache entry behind, so a retry recomputes
// instead of replaying the timeout.
func TestJobTimeoutNotCached(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	rep := Execute([]Job{Sim(cfg, nil)}, Options{JobTimeout: time.Nanosecond})
	if rep.OK() {
		t.Fatal("a 1ns timeout must fail the job")
	}
	f := rep.Failures[0]
	if f.Phase != "run" || !f.Cancelled() {
		t.Fatalf("failure is not a run-phase cancellation: %+v", f)
	}
	if cs := Cache(); cs.Entries != 0 {
		t.Fatalf("cancelled run left %d cache entries (would poison the retry)", cs.Entries)
	}
	var res *sim.Result
	Execute([]Job{Sim(cfg, func(r *sim.Result) { res = r })}, Options{}).MustOK()
	if res == nil {
		t.Fatal("retry after timeout did not deliver")
	}
}

// TestCheckpointKillAndResume is the resume contract end to end: a run that
// completes one of two experiments before being cancelled (standing in for
// a kill) journals the finished one; a fresh "process" (cache reset) with
// the same journal reloads it, computes only the other, and produces a CSV
// byte-identical to an uninterrupted run.
func TestCheckpointKillAndResume(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfgA := tinyConfig(t)
	cfgB := tinyConfig(t)
	cfgB.Seed = 5

	table := func() *stats.Table { return stats.NewTable("t", "workload", "policy", "cpa", "walk") }
	build := func(tab *stats.Table) []Job {
		mk := func(cfg sim.Config) Job {
			return Sim(cfg, func(r *sim.Result) {
				tab.AddRow(r.Workload, r.Policy, r.Perf.CyclesPerAccess, r.Perf.WalkCycleFraction)
			})
		}
		return []Job{mk(cfgA), mk(cfgB)}
	}

	base := table()
	Execute(build(base), Options{Parallelism: 1}).MustOK()

	// The "killed" run: with one worker, job A completes and is journaled,
	// the middle job cancels the batch, and B is skipped.
	dir := t.TempDir()
	ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := table()
	jobs := build(killed)
	jobs = []Job{jobs[0], Func(func() any { cancel(); return nil }, nil), jobs[1]}
	rep := Execute(jobs, Options{Parallelism: 1, Context: ctx, Checkpoint: dir})
	if rep.OK() {
		t.Fatal("the killed run must report the unfinished job")
	}

	// The resumed run: fresh memo cache, same journal.
	ResetCache()
	resumedTab := table()
	Execute(build(resumedTab), Options{Parallelism: 1, Checkpoint: dir}).MustOK()
	cs := Cache()
	if cs.Resumed != 1 || cs.Misses != 1 {
		t.Fatalf("resume ran %d sims and reloaded %d, want 1 and 1", cs.Misses, cs.Resumed)
	}
	if resumedTab.CSV() != base.CSV() {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n--- base\n%s--- resumed\n%s", base.CSV(), resumedTab.CSV())
	}
}

// TestCheckpointCorruptFileIgnored: a journal file torn by the crash being
// recovered from must be recomputed, not half-loaded.
func TestCheckpointCorruptFileIgnored(t *testing.T) {
	ResetCache()
	defer ResetCache()
	dir := t.TempDir()
	cfg := tinyConfig(t)
	Execute([]Job{Sim(cfg, nil)}, Options{Checkpoint: dir}).MustOK()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("journal has %d files (err %v), want 1", len(ents), err)
	}
	if err := os.WriteFile(filepath.Join(dir, ents[0].Name()), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	Execute([]Job{Sim(cfg, nil)}, Options{Checkpoint: dir}).MustOK()
	if cs := Cache(); cs.Resumed != 0 || cs.Misses != 1 {
		t.Fatalf("corrupt journal file was resumed: %+v", cs)
	}
}

// TestConcurrentDuplicateSingleFlight: duplicate configs inside ONE Execute
// call must collapse to a single sim.Run via the entry's once.
func TestConcurrentDuplicateSingleFlight(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	var jobs []Job
	var got [8]*sim.Result
	for i := 0; i < 8; i++ {
		i := i
		jobs = append(jobs, Sim(cfg, func(r *sim.Result) { got[i] = r }))
	}
	Execute(jobs, Options{Parallelism: 8})
	cs := Cache()
	if cs.Misses != 1 {
		t.Fatalf("8 concurrent duplicates ran sim.Run %d times, want 1", cs.Misses)
	}
	if cs.Hits != 7 {
		t.Fatalf("got %d hits, want 7", cs.Hits)
	}
	for i := 1; i < 8; i++ {
		if got[i] != got[0] {
			t.Fatalf("job %d received a different result pointer", i)
		}
	}
}

// TestStreamingDelivery: callbacks fire as the completed prefix grows,
// not after the whole batch. With one worker, job 1 blocks until job 0's
// commit has run — possible only if delivery overlaps execution. If
// delivery ever regresses to after-the-batch, job 1 times out and the
// sawEarly assertion fails.
func TestStreamingDelivery(t *testing.T) {
	firstDelivered := make(chan struct{})
	var sawEarly atomic.Bool
	jobs := []Job{
		Func(func() any { return 0 }, func(any) { close(firstDelivered) }),
		Func(func() any {
			select {
			case <-firstDelivered:
				sawEarly.Store(true)
			case <-time.After(10 * time.Second):
			}
			return 1
		}, nil),
	}
	Execute(jobs, Options{Parallelism: 1}).MustOK()
	if !sawEarly.Load() {
		t.Fatal("job 0's commit had not run while job 1 executed: delivery is not streaming")
	}
}

// TestOnJobObserver: OnJob sees every delivered job with its result source,
// in submission order — the hook the sweep service's metrics ride on.
func TestOnJobObserver(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	var names, sources []string
	opts := Options{Parallelism: 2, OnJob: func(name, source string, wallMs float64) {
		names = append(names, name)
		sources = append(sources, source)
		if wallMs < 0 {
			t.Errorf("job %s reported negative wall time %v", name, wallMs)
		}
	}}
	Execute([]Job{Sim(cfg, nil)}, opts).MustOK()
	Execute([]Job{Sim(cfg, nil)}, opts).MustOK()
	if len(sources) != 2 || sources[0] != "executed" || sources[1] != "cache" {
		t.Fatalf("sources = %v, want [executed cache]", sources)
	}
	for _, n := range names {
		if n == "" {
			t.Fatal("OnJob delivered an unnamed job")
		}
	}
}
