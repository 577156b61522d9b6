// Package runner is the parallel experiment engine behind every driver in
// internal/experiments. Each simulated configuration is deterministic and
// fully independent (seeded xrand, no shared state, no wall clock —
// DESIGN.md §5), which makes a figure's (workload × policy) grid
// embarrassingly parallel. Drivers stop looping over sim.Run and instead
// emit a flat []Job; Execute fans the jobs out over a worker pool and then
// delivers the results strictly in submission order, so every table a
// driver builds is byte-identical to the sequential run for any worker
// count.
//
// On top of the pool sits a process-wide memo cache keyed by a canonical
// fingerprint of the full sim.Config. The same configuration recurs across
// figures — the THP and Trident grids are shared by Figures 9–11, and the
// access-clamped fragmented Trident runs by Figure 7 and Tables 3–4 — so an
// "all experiments" run computes each unique config exactly once and serves
// every recurrence from the cache.
// Duplicate configs submitted concurrently are collapsed too: the first
// worker computes, the rest wait (single-flight).
//
// Failures are isolated, not fatal: a job that panics, returns an error, or
// is cancelled becomes a Failure record in the Report Execute returns, while
// every other job still runs and delivers (DESIGN.md §6). Options.Context
// and Options.JobTimeout bound a batch and each job; Options.Store
// publishes each completed simulator result to a durable content-addressed
// store so a killed run can be resumed without recomputing finished
// experiments.
package runner

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Job is one unit of concurrent work. Exactly one of the two forms is used:
//
//   - a simulator job (Cfg + Build), constructed with Sim: the pool executes
//     sim.Run(Cfg) — memoized — and Build receives the result;
//   - a function job (Run + Commit), constructed with Func: the pool executes
//     Run (not memoized) and Commit receives its return value. This form
//     carries drivers whose work is not a sim.Config grid (timeline scans,
//     microbenchmarks).
//
// Build/Commit callbacks are invoked on the submitting goroutine in
// submission order after all concurrent work completes, so they may append
// to shared tables and reference results of earlier jobs (e.g. a THP
// baseline row) without synchronization.
type Job struct {
	Cfg   sim.Config
	Build func(*sim.Result)
	// Fingerprint, when set, is Fingerprint(Cfg), already computed by a
	// caller that needed it anyway (the sweep service keys its journal
	// rows by it); the runner uses it instead of hashing Cfg again.
	Fingerprint string

	Run    func() any
	Commit func(any)
}

// Sim returns a memoized simulator job.
func Sim(cfg sim.Config, build func(*sim.Result)) Job {
	return Job{Cfg: cfg, Build: build}
}

// Func returns a non-memoized function job.
func Func(run func() any, commit func(any)) Job {
	return Job{Run: run, Commit: commit}
}

// Options tunes one Execute call.
type Options struct {
	// Parallelism is the worker-pool size; <= 0 means GOMAXPROCS.
	Parallelism int
	// Label, when non-empty, is attached to every job as the "experiment"
	// pprof label; simulator jobs additionally carry a "job" label of the
	// form "workload/policy". CPU profiles of a full experiments run can
	// then be sliced per figure and per grid cell with `go tool pprof
	// -tagfocus`. It also names the experiment in Failure records.
	Label string

	// Context cancels the whole batch: running simulator jobs stop at their
	// next access-batch boundary, not-yet-started jobs are skipped, and
	// both become Failure records. nil means context.Background().
	Context context.Context
	// JobTimeout bounds each job individually (simulator jobs only; Func
	// jobs have no cancellation point). <= 0 means no per-job limit.
	JobTimeout time.Duration
	// Store, when non-nil, is the persistent content-addressed result
	// store (internal/store): completed simulator results are published
	// under their memo fingerprint and reloaded on later Execute calls —
	// across process restarts and across concurrent processes sharing a
	// backend. It is the memo cache's one durable tier (memory → store).
	// Because the fingerprint is the canonical key the memo cache uses,
	// resuming a killed run replays finished jobs byte-identically and
	// computes only the rest. Store trouble never fails a job: corrupt
	// entries are quarantined and recomputed, write failures degrade to
	// Report.Notes records. The store must be cleared when the simulator
	// changes; it records results, not the code that produced them.
	Store *store.Store

	// Obs, when non-nil, attaches a per-run observability recorder
	// (internal/obs) to every simulator job and registers completed runs
	// with the observer in submission order, so the rendered trace and
	// time-series files are deterministic for any worker count. Tracing
	// composes with the memo cache by observing only actual executions:
	// a job served from the cache (or reloaded from the store) produced
	// no events, so it contributes nothing to the trace. The observer is
	// excluded from the memo-cache key — tracing never changes what a run
	// computes.
	Obs *obs.Observer

	// Log, when non-nil, receives one structured line per delivered job
	// (submission order: index, name, memo source, wall ms, fingerprint)
	// plus one per failure and durability note. Callers thread correlation
	// through the logger itself (e.g. the sweep service passes
	// slog.With("sweep_id", id)), so every engine line downstream of a
	// submission carries its origin. Logging is diagnostics only: it never
	// touches results, and a nil Log costs nothing.
	Log *slog.Logger
	// OnJob, when non-nil, observes each delivered job in submission order:
	// name, how the memo tiers satisfied it ("executed", "cache", "store",
	// "skipped", "failed"), and its wall time. The sweep service feeds its
	// job-latency metrics and live event stream from this hook. It runs on
	// the submitting goroutine, interleaved with Build/Commit callbacks.
	OnJob func(name, source string, wallMs float64)
}

// Failure describes one job that did not deliver: its sim ended in an error,
// its function panicked, a callback panicked, or cancellation reached it
// first. The zero Index is meaningful; check Phase to see how far it got.
type Failure struct {
	// Index is the job's submission index within its Execute batch.
	Index int
	// Experiment is the Options.Label of the batch.
	Experiment string
	// Name identifies the job: "workload/policy" for simulator jobs,
	// "func" for function jobs.
	Name string
	// Phase says where the failure happened: "run" (the sim or function
	// itself), "build"/"commit" (the submission-order callback — typically
	// a driver dereferencing the result of an earlier failed job), or
	// "skipped" (cancelled before the job started).
	Phase string
	// Err is the error returned by the run (nil if the job panicked).
	Err error
	// Panic is the recovered panic value (nil if the job errored).
	Panic any
	// Stack is the goroutine stack captured where the panic was recovered.
	Stack string
	// Cfg is the job's simulator configuration (zero for function jobs).
	Cfg sim.Config
}

// Reason renders the failure as one line.
func (f *Failure) Reason() string {
	where := f.Name
	if f.Experiment != "" {
		where = f.Experiment + "/" + f.Name
	}
	switch {
	case f.Panic != nil:
		return fmt.Sprintf("%s: panic in %s phase: %v", where, f.Phase, f.Panic)
	case f.Phase == "skipped":
		return fmt.Sprintf("%s: skipped: %v", where, f.Err)
	default:
		return fmt.Sprintf("%s: %v", where, f.Err)
	}
}

// Cancelled reports whether the failure is a cancellation (batch context or
// per-job timeout) rather than a wrong machine.
func (f *Failure) Cancelled() bool {
	return f.Err != nil && (errors.Is(f.Err, context.Canceled) || errors.Is(f.Err, context.DeadlineExceeded))
}

// Report is the outcome of one Execute batch.
type Report struct {
	// Jobs is the batch size.
	Jobs int
	// Failures lists the jobs that did not deliver, in submission order.
	// Empty means every callback ran.
	Failures []Failure
	// Notes lists durability incidents that did NOT prevent delivery, in
	// submission order: a quarantined store entry recomputed, a store
	// write whose retry budget ran out. Phase is "durability". They never
	// affect OK() — the results themselves are correct — but operators
	// should see them: each one is a disk lying.
	Notes []Failure
}

// OK reports whether every job delivered.
func (r *Report) OK() bool { return len(r.Failures) == 0 }

// MustOK panics on the first failure by submission index. Callers that have
// nowhere to record failures (benchmarks, tests) use it to keep the
// pre-Report fail-fast behavior.
func (r *Report) MustOK() {
	if !r.OK() {
		f := &r.Failures[0]
		if f.Panic != nil && f.Stack != "" {
			panic(fmt.Sprintf("runner: %s\n%s", f.Reason(), f.Stack))
		}
		panic("runner: " + f.Reason())
	}
}

// Execute runs jobs concurrently on a worker pool and invokes each job's
// Build/Commit callback in submission order. Delivery is streaming: job
// i's callback runs as soon as jobs 0..i have all finished — not after the
// whole batch — so a caller observing its own callbacks (the sweep
// service's live event stream) sees rows the moment the completed prefix
// grows, while the order (and therefore every rendered table) stays
// byte-identical to the sequential run for any worker count. A job that
// panics, errors, or is cancelled does not stop the batch: it becomes a
// Failure in the returned Report (with the panic's stack and the job's
// config), its callback is skipped, and every other job still runs and
// delivers. A panic inside a Build/Commit callback is captured the same
// way, so one failed experiment cannot take down the driver building rows
// from the others.
func Execute(jobs []Job, opts Options) *Report {
	rep := &Report{Jobs: len(jobs)}
	if len(jobs) == 0 {
		return rep
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	tr := beginBatch(opts.Label, len(jobs))
	batchStart := time.Now()
	results := make([]jobResult, len(jobs))
	// done[i] closes when job i's result is fully recorded; the delivery
	// loop below consumes the channels in submission order, so callbacks
	// fire as the completed prefix grows (streaming), never out of order.
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				r := &results[i]
				if err := ctx.Err(); err != nil {
					r.skipped = true
					r.err = fmt.Errorf("runner: batch cancelled before job started: %w", err)
					tr.jobSkipped()
					close(done[i])
					continue
				}
				jctx, cancel := ctx, context.CancelFunc(func() {})
				if opts.JobTimeout > 0 {
					jctx, cancel = context.WithTimeout(ctx, opts.JobTimeout)
				}
				tr.jobStarted()
				if opts.Log != nil {
					opts.Log.Debug("job dispatched", "experiment", opts.Label,
						"index", i, "job", jobName(&jobs[i]))
				}
				start := time.Now()
				pprof.Do(context.Background(), jobLabels(&jobs[i], opts.Label), func(context.Context) {
					runJob(jctx, &jobs[i], r, opts)
				})
				cancel()
				r.wallMs = float64(time.Since(start).Nanoseconds()) / 1e6
				recordJobWall(r.wallMs)
				tr.jobFinished(r)
				close(done[i])
			}
		}()
	}

	for i := range jobs {
		<-done[i]
		j := &jobs[i]
		r := &results[i]
		if r.note != nil {
			// Durability incident that did not stop the job (corrupt
			// store entry recomputed, store write degraded).
			rep.Notes = append(rep.Notes, Failure{Index: i, Experiment: opts.Label,
				Name: jobName(j), Phase: "durability", Err: r.note, Cfg: j.Cfg})
			if opts.Log != nil {
				opts.Log.Warn("durability incident (result delivered)",
					"experiment", opts.Label, "index", i, "job", jobName(j), "err", r.note)
			}
		}
		switch {
		case r.panicked != nil:
			rep.fail(Failure{Index: i, Experiment: opts.Label, Name: jobName(j),
				Phase: "run", Panic: r.panicked, Stack: r.stack, Cfg: j.Cfg})
		case r.skipped:
			rep.fail(Failure{Index: i, Experiment: opts.Label, Name: jobName(j),
				Phase: "skipped", Err: r.err, Cfg: j.Cfg})
		case r.err != nil:
			rep.fail(Failure{Index: i, Experiment: opts.Label, Name: jobName(j),
				Phase: "run", Err: r.err, Cfg: j.Cfg})
		default:
			before := len(rep.Failures)
			deliver(j, i, r.out, opts.Label, rep)
			if len(rep.Failures) > before {
				tr.deliverFailed()
			}
			// Flushing here — on the submitting goroutine, in submission
			// order — is what makes trace output deterministic under any
			// worker count. Empty recorders (cache hits, disabled obs)
			// are skipped by Flush itself.
			opts.Obs.Flush(r.obs)
		}
		src := r.source()
		// Debug for a delivered job: one line per job is high-volume
		// happy-path data — the event stream and metrics carry it at
		// default levels. A dropped record costs nothing, not even the
		// fingerprint, which the memo tiers may not have computed.
		level, msg := slog.LevelDebug, "job delivered"
		if !r.delivered() {
			level, msg = slog.LevelError, "job failed"
		}
		if opts.Log != nil && opts.Log.Enabled(context.Background(), level) {
			attrs := []any{"experiment", opts.Label, "index", i, "job", jobName(j),
				"source", src, "wall_ms", r.wallMs}
			if j.Run == nil && j.Cfg.Workload != nil {
				if r.fp == "" {
					r.fp = Fingerprint(j.Cfg)
				}
				attrs = append(attrs, "fingerprint", r.fp)
			}
			if r.err != nil {
				attrs = append(attrs, "err", r.err)
			}
			if r.panicked != nil {
				attrs = append(attrs, "panic", fmt.Sprint(r.panicked))
			}
			opts.Log.Log(context.Background(), level, msg, attrs...)
		}
		if opts.OnJob != nil {
			opts.OnJob(jobName(j), src, r.wallMs)
		}
	}
	wg.Wait()
	tr.endBatch(time.Since(batchStart))
	return rep
}

// jobResult is everything one worker records about one job; the delivery
// loop reads it single-threaded after wg.Wait.
type jobResult struct {
	out       any
	err       error
	panicked  any
	stack     string
	skipped   bool
	cached    bool  // served from the in-process memo cache
	fromStore bool  // reloaded from the persistent result store
	note      error // durability incident that did not stop the job
	obs       *obs.Run
	phaseWall map[string]float64 // wall ms per sim phase (executed jobs only)
	wallMs    float64
	fp        string // the job's fingerprint, if given or computed (see cachedRun)
}

// delivered reports whether the job's callback will run (no failure of any
// phase recorded against the run itself).
func (r *jobResult) delivered() bool {
	return r.panicked == nil && !r.skipped && r.err == nil
}

// source names the memo tier that satisfied the job, for logs, metrics and
// the service event stream.
func (r *jobResult) source() string {
	switch {
	case r.panicked != nil || r.err != nil && !r.skipped:
		return "failed"
	case r.skipped:
		return "skipped"
	case r.cached:
		return "cache"
	case r.fromStore:
		return "store"
	default:
		return "executed"
	}
}

func (r *Report) fail(f Failure) { r.Failures = append(r.Failures, f) }

// deliver invokes the job's submission-order callback, capturing a panic as
// a build/commit-phase Failure. The common source is a driver closure
// dereferencing the baseline result of an earlier job that itself failed.
func deliver(j *Job, i int, out any, label string, rep *Report) {
	phase := "build"
	if j.Run != nil {
		phase = "commit"
	}
	defer func() {
		if p := recover(); p != nil {
			rep.fail(Failure{Index: i, Experiment: label, Name: jobName(j),
				Phase: phase, Panic: p, Stack: string(debug.Stack()), Cfg: j.Cfg})
		}
	}()
	if j.Run != nil {
		if j.Commit != nil {
			j.Commit(out)
		}
		return
	}
	if j.Build != nil {
		j.Build(out.(*sim.Result))
	}
}

// jobName identifies a job in Failure records and panic messages.
func jobName(j *Job) string {
	if j.Run != nil {
		return "func"
	}
	name := "?"
	if j.Cfg.Workload != nil {
		name = j.Cfg.Workload.Name
	}
	return fmt.Sprintf("%s/%v", name, j.Cfg.Policy)
}

// jobLabels builds the pprof label set for one job: the Execute-level
// experiment label plus, for simulator jobs, the grid cell being computed.
func jobLabels(j *Job, label string) pprof.LabelSet {
	kv := make([]string, 0, 4)
	if label != "" {
		kv = append(kv, "experiment", label)
	}
	if j.Run == nil && j.Cfg.Workload != nil {
		kv = append(kv, "job", fmt.Sprintf("%s/%v", j.Cfg.Workload.Name, j.Cfg.Policy))
	}
	return pprof.Labels(kv...)
}

func runJob(ctx context.Context, j *Job, r *jobResult, opts Options) {
	defer func() {
		if p := recover(); p != nil {
			r.panicked = p
			r.stack = string(debug.Stack())
		}
	}()
	if j.Run != nil {
		r.out = j.Run()
		return
	}
	// Every simulator job gets a recorder: with Options.Obs it carries the
	// observer's tracing/sampling configuration; without, a bare recorder
	// that only forwards phase transitions. Either way OnPhase stamps
	// wall-clock phase durations — the wall clock lives here, on the
	// runner's side of the obs fence, never inside the simulation.
	cfg := j.Cfg
	orun := opts.Obs.NewRun(jobName(j))
	if orun == nil {
		orun = &obs.Run{Name: jobName(j)}
	}
	r.phaseWall = map[string]float64{}
	starts := map[string]time.Time{}
	orun.OnPhase = func(phase string, begin bool) {
		if begin {
			starts[phase] = time.Now()
			return
		}
		if t0, ok := starts[phase]; ok {
			r.phaseWall[phase] += float64(time.Since(t0).Nanoseconds()) / 1e6
		}
	}
	cfg.Obs = orun
	r.fp = j.Fingerprint
	res, src, note, e := cachedRun(ctx, cfg, &r.fp, opts.Store)
	r.cached = src == srcHit
	r.fromStore = src == srcStore
	r.note = note
	r.obs = orun
	r.out, r.err = res, e
}

// cacheKey is the memo cache's key: the normalized sim.Config itself, with
// its two spec pointers replaced by the values they point to, so distinct
// pointers to equal specs (workload.All allocates fresh specs per call)
// still hit. Every Config field — present or added later, exported or not —
// is keyed by construction unless keyOf clears it. The key holds no live
// pointer (the cleared fields render as nil), so fmt's %#v rendering is
// stable across processes — the persistent store hashes it to name entries.
type cacheKey struct {
	cfg      sim.Config
	workload workload.Spec
	tlb      tlb.Config
}

func keyOf(cfg sim.Config) cacheKey {
	cfg = cfg.Normalized()
	key := cacheKey{workload: *cfg.Workload, tlb: *cfg.TLB}
	cfg.Workload = nil // keyed by value above: the address is not identity
	cfg.TLB = nil      // keyed by value above: the address is not identity
	cfg.Obs = nil      // observability only: a recorder never influences a run
	key.cfg = cfg
	return key
}

// runSource says how cachedRun satisfied a call: by executing the
// simulation, by serving a memoized result, or by reloading an entry from
// the persistent result store.
type runSource int

const (
	srcExecuted runSource = iota
	srcHit
	srcStore
)

// entry is one single-flight cache slot: the first arrival computes under
// once; latecomers block on once.Do and read the stored outcome.
type entry struct {
	once      sync.Once
	res       *sim.Result
	err       error
	note      error // durability incident recorded by the computing arrival
	panicked  any
	fromStore bool
}

var (
	cacheMu   sync.Mutex
	cache     = map[cacheKey]*entry{}
	hits      atomic.Uint64
	misses    atomic.Uint64
	storeHits atomic.Uint64
)

// cachedRun executes cfg through the memo cache tiers: in-process map →
// persistent store → sim.RunContext. Results are
// shared across callers and must be treated as immutable (sim.Result is
// plain measured data; drivers only read it). The note return carries
// durability incidents that did not prevent the job (corrupt entries
// recomputed, store writes degraded); it is non-nil only for the arrival
// that performed the work (single-flight latecomers report nothing). *fp is
// cfg's fingerprint if the caller knows it, else empty; the store tier
// fills it in when it has to compute it, so no job hashes its key twice.
func cachedRun(ctx context.Context, cfg sim.Config, fp *string, st *store.Store) (*sim.Result, runSource, error, error) {
	if cfg.Workload == nil {
		res, err := sim.RunContext(ctx, cfg)
		return res, srcExecuted, nil, err
	}
	key := keyOf(cfg)
	cacheMu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &entry{}
		cache[key] = e
	}
	cacheMu.Unlock()

	first := false
	e.once.Do(func() {
		first = true
		defer func() {
			if p := recover(); p != nil {
				e.panicked = p
			}
		}()
		if st != nil {
			if *fp == "" {
				*fp = fingerprintKey(key)
			}
			res, lerr := storeLoad(st, *fp)
			if res != nil {
				storeHits.Add(1)
				e.res = res
				e.fromStore = true
				return
			}
			// A corrupt or unreadable entry is a note; the run recomputes.
			e.note = lerr
		}
		misses.Add(1)
		e.res, e.err = sim.RunContext(ctx, cfg)
		if e.err == nil && st != nil {
			// Store trouble degrades durability, never correctness: the
			// computed result is delivered either way, and the two notes
			// (unusable entry, failed republish) chain.
			if serr := storeSave(st, *fp, e.res); serr != nil {
				e.note = errors.Join(e.note, serr)
			}
		}
	})
	src := srcExecuted
	switch {
	case !first:
		src = srcHit
		hits.Add(1)
	case e.fromStore:
		src = srcStore
	}
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// A cancelled run is an absence of a result, not a result: drop the
		// entry so a later Execute — the same process retrying, or a
		// resumed batch — recomputes instead of replaying the
		// cancellation forever.
		cacheMu.Lock()
		if cache[key] == e {
			delete(cache, key)
		}
		cacheMu.Unlock()
	}
	if e.panicked != nil {
		panic(e.panicked)
	}
	var note error
	if first {
		note = e.note
	}
	return e.res, src, note, e.err
}

// CacheStats reports the memo cache's cumulative activity. Misses count
// actual sim.Run executions through the cache; hits count runs served from
// (or collapsed into) an existing entry; StoreHits counts runs reloaded
// from the persistent result store instead of executed.
type CacheStats struct {
	Hits, Misses uint64
	StoreHits    uint64
	Entries      int
}

// Cache returns a snapshot of the memo-cache counters.
func Cache() CacheStats {
	cacheMu.Lock()
	n := len(cache)
	cacheMu.Unlock()
	return CacheStats{Hits: hits.Load(), Misses: misses.Load(),
		StoreHits: storeHits.Load(), Entries: n}
}

// ResetCache drops all memoized results and zeroes the counters. Tests use
// it to isolate cache observations; long-lived processes can use it to bound
// memory.
func ResetCache() {
	cacheMu.Lock()
	cache = map[cacheKey]*entry{}
	cacheMu.Unlock()
	hits.Store(0)
	misses.Store(0)
	storeHits.Store(0)
}
