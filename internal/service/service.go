// Package service is the long-running sweep service: a job queue over the
// experiment engine that accepts sweep submissions (a workloads × policies
// grid), executes them through the runner with the persistent result store
// as a shared memo tier, and survives crashes — every accepted submission
// is durably journaled before it is acknowledged, every completed
// simulation is published to the store, and a restarted service resumes
// unfinished sweeps to byte-identical reports.
//
// Failure behavior is the point (DESIGN.md §9):
//
//   - Admission control: the queue is bounded globally and per client;
//     rejected submissions get 429 + Retry-After (backpressure), never
//     silent drops. Dequeue is round-robin across clients, so one noisy
//     tenant cannot starve the rest.
//   - Retry with deterministic capped exponential backoff: a sweep whose
//     failures look transient is re-executed up to MaxRetries times; the
//     backoff schedule is a pure function of (seed, sweep id, attempt), so
//     a chaos-injected failure schedule reproduces the same retry timeline
//     on every run. Completed simulations replay from the store, so a
//     retry recomputes only what actually failed.
//   - Deadline budgets: each sweep runs under a deadline (its own or the
//     service default); past it, remaining jobs are cancelled and the
//     sweep fails with the deadline recorded — it is not retried.
//   - Graceful drain: cancelling the Run context stops admission
//     (submissions get 503), interrupts the in-flight sweep at its next
//     batch boundary (completed sims are already in the store), flushes
//     the result store and the sweep records, and returns — the caller
//     then exits 0. A later start with Resume picks every unfinished sweep
//     back up.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// SweepRequest is one submission: the (workloads × policies) grid to
// simulate and its scale parameters. The zero value of every scale field
// resolves to the sim package's default.
type SweepRequest struct {
	// Client identifies the submitter for fairness accounting; empty is
	// the anonymous client.
	Client string `json:"client,omitempty"`
	// Workloads and Policies span the grid; both must be non-empty.
	// Workload names are Table-2 names ("GUPS", "Redis", ...); policy
	// names are the CLI names (sim.PolicyNames).
	Workloads []string `json:"workloads"`
	Policies  []string `json:"policies"`

	MemGB    uint64  `json:"mem_gb,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Accesses int     `json:"accesses,omitempty"`
	// Seed 0 resolves to sim.DefaultSeed.
	Seed     uint64 `json:"seed,omitempty"`
	Fragment bool   `json:"fragment,omitempty"`

	// DeadlineMs bounds the whole sweep; 0 uses the service default.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// Sweep states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // drained mid-run; resumes on restart
)

// Sweep is a point-in-time status snapshot.
type Sweep struct {
	ID     string       `json:"id"`
	Client string       `json:"client,omitempty"`
	State  string       `json:"state"`
	Req    SweepRequest `json:"request"`
	// Jobs is the grid size; Completed counts grid cells whose results the
	// store holds (it survives restarts, and counts cells another sweep
	// computed).
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	// Attempts counts executions including retries.
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Admission errors. The HTTP layer maps them to status codes.
var (
	// ErrDraining: the service is shutting down; nothing new is admitted.
	ErrDraining = errors.New("service: draining, not accepting submissions")
	// ErrQueueFull: global backpressure; retry after the queue drains.
	ErrQueueFull = errors.New("service: sweep queue full")
	// ErrClientBusy: per-client fairness cap; this client must wait.
	ErrClientBusy = errors.New("service: too many queued sweeps for this client")
)

// Config tunes a Service.
type Config struct {
	// Dir is the service root. <Dir>/sweeps is a store of the per-sweep
	// records: <id>.request, the admission record, and <id>.report, the
	// finished CSV. Required.
	Dir string
	// Store is the shared persistent result store. nil opens fs:<Dir>/store,
	// which is cleared with the sweep area unless Resume.
	Store *store.Store
	// QueueLimit bounds queued sweeps globally (default 16);
	// PerClientLimit bounds them per client (default 4).
	QueueLimit     int
	PerClientLimit int
	// Parallelism is the runner worker-pool size per sweep.
	Parallelism int
	// JobTimeout bounds each simulation job; 0 = none.
	JobTimeout time.Duration
	// DefaultDeadline bounds a sweep that did not bring its own
	// (default 10 minutes).
	DefaultDeadline time.Duration
	// MaxRetries is how many times a transiently-failed sweep is re-run
	// (default 2). Retries replay finished sims from the store.
	MaxRetries int
	// RetrySeed, BackoffBase and BackoffCap pin the deterministic backoff
	// schedule (defaults 1, 50ms, 2s).
	RetrySeed   uint64
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Resume rescans the sweep records for unfinished sweeps and
	// re-enqueues them; without it <Dir>/sweeps is cleared at startup,
	// mirroring the -resume contract of cmd/experiments.
	Resume bool
	// Log receives the service's structured diagnostics: admission
	// decisions, sweep lifecycle, retries, per-job delivery (via the
	// runner). nil silences them. Every record downstream of a sweep
	// carries its sweep_id (DESIGN.md §10); logs never feed back into
	// execution, so reports are byte-identical with or without one.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueLimit <= 0 {
		c.QueueLimit = 16
	}
	if c.PerClientLimit <= 0 {
		c.PerClientLimit = 4
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Minute
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetrySeed == 0 {
		c.RetrySeed = 1
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 2 * time.Second
	}
	return c
}

// sweep is the internal mutable record behind a Sweep snapshot.
type sweep struct {
	id       string
	req      SweepRequest
	state    string
	jobs     int
	fps      []string // grid cells' memo fingerprints, in submission order
	attempts int
	err      string
	events   *eventLog
}

// Service is the sweep service. Create with New, serve HTTP via Handler,
// process with Run; cancel Run's context to drain.
type Service struct {
	cfg     Config
	records *store.Store // per-sweep request and report entries
	log     *slog.Logger
	sleep   func(time.Duration) // test seam for retry backoff

	mu       sync.Mutex
	sweeps   map[string]*sweep
	queues   map[string][]string // client → queued sweep ids, FIFO
	clients  []string            // round-robin ring of clients ever seen
	rrNext   int
	queuedN  int
	draining bool
	wake     chan struct{}

	admitted    atomic.Uint64
	rejected    atomic.Uint64
	retried     atomic.Uint64
	notes       atomic.Uint64
	interrupted atomic.Uint64
	events      atomic.Uint64 // stream/journal events emitted
	streamSubs  atomic.Int64  // live /events subscribers
	inFlight    atomic.Int64  // jobs dispatched to the runner, not yet delivered

	// Job-source delivery counters, fed by the runner's OnJob hook.
	jobsExecuted, jobsCache, jobsStore, jobsSkipped, jobsFailed atomic.Uint64

	// Summaries are registered lazily by RegisterMetrics; the hooks below
	// tolerate their absence (a service without a registry still runs).
	jobWallMs atomic.Pointer[obs.Summary]
	backoffMs atomic.Pointer[obs.Summary]
}

// New creates the service, clearing or rescanning cfg.Dir per cfg.Resume.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, errors.New("service: Config.Dir is required")
	}
	root := filepath.Join(cfg.Dir, "sweeps")
	if !cfg.Resume {
		if err := os.RemoveAll(root); err != nil {
			return nil, fmt.Errorf("service: clearing sweep area: %w", err)
		}
	}
	records, err := store.Open("fs:" + root)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	records.SetLogger(cfg.Log)
	if cfg.Store == nil {
		dir := filepath.Join(cfg.Dir, "store")
		if !cfg.Resume {
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("service: clearing store: %w", err)
			}
		}
		st, err := store.Open("fs:" + dir)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		st.SetLogger(cfg.Log)
		cfg.Store = st
	}
	return open(cfg, records)
}

// open builds the service over its result store (cfg.Store, required) and
// its sweep records, rescanning the records if cfg.Resume.
func open(cfg Config, records *store.Store) (*Service, error) {
	cfg = cfg.withDefaults()
	log := cfg.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Service{
		cfg:     cfg,
		records: records,
		log:     log,
		sweeps:  map[string]*sweep{},
		queues:  map[string][]string{},
		wake:    make(chan struct{}, 1),
	}
	if cfg.Resume {
		if err := s.rescan(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// sweepID is the content address of a request: submitting the same sweep
// twice yields the same id (and the second submission is a cheap idempotent
// acknowledgement, not a duplicate execution).
func sweepID(req SweepRequest) string {
	canon, _ := json.Marshal(req) // struct field order is fixed; no maps
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:8])
}

// validate resolves names early so a bad submission is a 400 at admission,
// not a failed sweep later.
func validate(req SweepRequest) error {
	if len(req.Workloads) == 0 || len(req.Policies) == 0 {
		return errors.New("service: a sweep needs at least one workload and one policy")
	}
	for _, w := range req.Workloads {
		if _, ok := workload.ByName(w); !ok {
			return fmt.Errorf("service: unknown workload %q", w)
		}
	}
	for _, p := range req.Policies {
		if _, ok := sim.PolicyByName(p); !ok {
			return fmt.Errorf("service: unknown policy %q (valid: %s)", p, strings.Join(sim.PolicyNames(), ", "))
		}
	}
	if req.Scale < 0 || req.DeadlineMs < 0 || req.Accesses < 0 {
		return errors.New("service: negative scale, accesses or deadline")
	}
	return nil
}

// Submit admits one sweep. It returns the (possibly pre-existing) sweep
// snapshot; the error, when non-nil, is ErrDraining, ErrQueueFull,
// ErrClientBusy or a validation error. The store probes that fill
// Completed run after the admission critical section releases s.mu.
func (s *Service) Submit(req SweepRequest) (Sweep, error) {
	if err := validate(req); err != nil {
		return Sweep{}, err
	}
	fps := gridFingerprints(req)
	snap, err := s.submit(req, fps)
	if err != nil {
		return snap, err
	}
	snap.Completed = s.completed(fps)
	return snap, nil
}

// submit is Submit's admission critical section for a validated request
// and its grid fingerprints: everything up to the returned snapshot
// happens under s.mu, including the durable request journaling — an
// accepted sweep must be on disk before any concurrent same-id submitter
// can observe it as admitted.
func (s *Service) submit(req SweepRequest, fps []string) (Sweep, error) {
	id := sweepID(req)

	s.mu.Lock()
	defer s.mu.Unlock()
	if sw, ok := s.sweeps[id]; ok {
		// Idempotent resubmission. A failed or interrupted sweep is
		// re-admitted (fresh retry budget); anything else just reports.
		if sw.state != StateFailed && sw.state != StateInterrupted {
			s.log.Info("sweep resubmitted (idempotent)",
				"sweep_id", id, "client", req.Client, "state", sw.state)
			return s.snapshotLocked(sw), nil
		}
	}
	if s.draining {
		s.rejected.Add(1)
		s.log.Warn("sweep rejected", "sweep_id", id, "client", req.Client, "reason", "draining")
		return Sweep{}, ErrDraining
	}
	if s.queuedN >= s.cfg.QueueLimit {
		s.rejected.Add(1)
		s.log.Warn("sweep rejected", "sweep_id", id, "client", req.Client,
			"reason", "queue full", "queued", s.queuedN)
		return Sweep{}, ErrQueueFull
	}
	if len(s.queues[req.Client]) >= s.cfg.PerClientLimit {
		s.rejected.Add(1)
		s.log.Warn("sweep rejected", "sweep_id", id, "client", req.Client,
			"reason", "per-client limit", "client_queued", len(s.queues[req.Client]))
		return Sweep{}, ErrClientBusy
	}

	sw, ok := s.sweeps[id]
	if !ok {
		sw = s.newSweep(id, req, fps)
		// Durably record the request before acknowledging: an accepted
		// sweep survives a kill -9 one microsecond later. This IO stays
		// inside the admission critical section on purpose — releasing
		// s.mu before the record lands would let a concurrent same-id
		// submitter be acknowledged off an unrecorded sweep.
		reqJSON, _ := json.Marshal(req)
		//lint:ignore lockflow journal-before-ack: <id>.request is the admission record; writing it outside s.mu would un-serialize idempotent resubmission (DESIGN.md §9)
		if err := s.records.Put(id+".request", reqJSON); err != nil {
			return Sweep{}, fmt.Errorf("service: recording request: %w", err)
		}
		s.sweeps[id] = sw
	}
	s.enqueueLocked(sw)
	s.admitted.Add(1)
	s.log.Info("sweep admitted", "sweep_id", id, "client", req.Client,
		"jobs", sw.jobs, "queued", s.queuedN)
	return s.snapshotLocked(sw), nil
}

// newSweep builds the in-memory record, wiring its event log to the
// service's emission counter.
func (s *Service) newSweep(id string, req SweepRequest, fps []string) *sweep {
	return &sweep{
		id: id, req: req, jobs: len(fps), fps: fps,
		events: newEventLog(func() { s.events.Add(1) }),
	}
}

// gridConfigs expands a validated request into its simulator configs in
// submission order: workloads outer, policies inner.
func gridConfigs(req SweepRequest) []sim.Config {
	var cfgs []sim.Config
	for _, wname := range req.Workloads {
		spec, _ := workload.ByName(wname)
		for _, pname := range req.Policies {
			kind, _ := sim.PolicyByName(pname)
			cfgs = append(cfgs, sim.Config{
				Workload: spec,
				Policy:   kind,
				MemGB:    req.MemGB,
				Scale:    req.Scale,
				Accesses: req.Accesses,
				Seed:     req.Seed,
				Fragment: req.Fragment,
			})
		}
	}
	return cfgs
}

// gridJobs is the sweep's grid as runner jobs whose results fill tab. Each
// job carries its cell's fingerprint from sw.fps, so the runner keys the
// result store by it without hashing the config again; TestGridJobsFingerprints
// pins that it equals the fingerprint of the job's own config.
func gridJobs(sw *sweep, tab *stats.Table) []runner.Job {
	cfgs := gridConfigs(sw.req)
	jobs := make([]runner.Job, len(cfgs))
	for idx, cfg := range cfgs {
		// Result callbacks fire in submission order as the completed
		// prefix grows (runner streaming delivery), so row index == table
		// row index, and each row event carries the exact CSV bytes the
		// final report will contain.
		jobs[idx] = runner.Sim(cfg, func(r *sim.Result) {
			tab.AddRow(r.Workload, r.Policy, r.Perf.CyclesPerAccess, r.Perf.WalkCycleFraction)
			sw.events.row(sw.id, idx, sw.fps[idx], tab.RowCSV(idx))
		})
		jobs[idx].Fingerprint = sw.fps[idx]
	}
	return jobs
}

// gridFingerprints is the memo fingerprint of each grid cell — the store
// keys that Completed probes and that row events carry.
func gridFingerprints(req SweepRequest) []string {
	cfgs := gridConfigs(req)
	fps := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		fps[i] = runner.Fingerprint(cfg)
	}
	return fps
}

func (s *Service) enqueueLocked(sw *sweep) {
	sw.state = StateQueued
	sw.err = ""
	client := sw.req.Client
	if _, seen := s.queues[client]; !seen {
		s.clients = append(s.clients, client)
	}
	s.queues[client] = append(s.queues[client], sw.id)
	s.queuedN++
	sw.events.state(sw.id, StateQueued, "", sw.attempts)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// next dequeues round-robin across clients, so interleaved tenants make
// interleaved progress regardless of submission bursts.
func (s *Service) next() *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queuedN == 0 || len(s.clients) == 0 {
		return nil
	}
	for i := 0; i < len(s.clients); i++ {
		c := s.clients[(s.rrNext+i)%len(s.clients)]
		q := s.queues[c]
		if len(q) == 0 {
			continue
		}
		id := q[0]
		s.queues[c] = q[1:]
		s.queuedN--
		s.rrNext = (s.rrNext + i + 1) % len(s.clients)
		sw := s.sweeps[id]
		sw.state = StateRunning
		return sw
	}
	return nil
}

// rescan re-enqueues every recorded sweep without a readable report — the
// Resume path after a crash or drain. Records are listed in sorted key
// order, so the resumed schedule is deterministic.
func (s *Service) rescan() error {
	keys, err := s.records.Keys()
	if err != nil {
		return fmt.Errorf("service: rescan: %w", err)
	}
	for _, key := range keys {
		id, ok := strings.CutSuffix(key, ".request")
		if !ok {
			continue
		}
		reqJSON, err := s.records.Get(key)
		switch {
		case errors.Is(err, store.ErrCorrupt):
			continue // torn submission (quarantined): never acknowledged, safe to ignore
		case err != nil:
			// An acknowledged sweep that cannot be read now must not be
			// forgotten: fail startup, and a later -resume finds it.
			return fmt.Errorf("service: rescan: reading %s: %w", key, err)
		}
		var req SweepRequest
		if err := json.Unmarshal(reqJSON, &req); err != nil || sweepID(req) != id || validate(req) != nil {
			continue // corrupt or foreign; the content address must verify
		}
		sw := s.newSweep(id, req, gridFingerprints(req))
		s.sweeps[id] = sw
		// A torn or bit-rotted report is quarantined by the store and the
		// sweep re-runs; its cells replay from the result store.
		if csv, err := s.report(id); err == nil && sw.events.rebuild(id, sw.fps, csv) {
			sw.state = StateDone
			s.log.Info("sweep recovered as done", "sweep_id", id)
			continue
		}
		s.log.Info("sweep re-enqueued on resume", "sweep_id", id, "client", req.Client)
		s.enqueueLocked(sw)
	}
	return nil
}

// recompute re-enqueues a done sweep whose report entry no longer
// verifies or is gone (recompute, never trust: its cells replay from the
// result store, and the report it writes again is byte-identical) and
// returns the sweep's state. A sweep another request already re-enqueued is left as it
// is. Like rescan's re-enqueue, it bypasses the admission limits: the
// sweep was acknowledged long ago.
func (s *Service) recompute(id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.sweeps[id]
	if sw.state == StateDone {
		s.log.Warn("report lost; sweep re-enqueued", "sweep_id", id)
		s.enqueueLocked(sw)
	}
	return sw.state
}

// Run processes sweeps until ctx is cancelled, then drains: admission
// stops, the in-flight sweep is interrupted at its next batch boundary
// (its completed simulations are already in the store), both stores are
// flushed, and Run returns nil. Call once.
func (s *Service) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return s.drain()
		}
		sw := s.next()
		if sw == nil {
			select {
			case <-ctx.Done():
				return s.drain()
			case <-s.wake:
			}
			continue
		}
		s.runSweep(ctx, sw)
	}
}

// drain finalizes shutdown: stop admission and flush both stores. By the
// time drain runs no sweep is executing (Run is single-threaded), and
// every completed simulation was published the moment it finished.
func (s *Service) drain() error {
	s.mu.Lock()
	s.draining = true
	queued := s.queuedN
	s.mu.Unlock()
	s.log.Info("service draining", "queued", queued)
	if err := errors.Join(s.cfg.Store.Flush(), s.records.Flush()); err != nil {
		s.log.Error("store flush on drain failed", "err", err)
		return fmt.Errorf("service: store flush on drain: %w", err)
	}
	s.log.Info("service drained")
	return nil
}

// Draining reports whether admission is closed (readyz uses it). It flips
// when a drain completes.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// runSweep executes one sweep with deadline budget and deterministic
// retry/backoff. Each attempt restarts the sweep's event journal from
// scratch (completed sims replay from the store, re-emitting the
// identical prefix), so the journal of the attempt that finishes is
// byte-identical to an uninterrupted run's.
func (s *Service) runSweep(ctx context.Context, sw *sweep) {
	defer sw.events.finish()
	log := s.log.With("sweep_id", sw.id)
	deadline := s.cfg.DefaultDeadline
	if sw.req.DeadlineMs > 0 {
		deadline = time.Duration(sw.req.DeadlineMs) * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		sw.attempts++
		att := sw.attempts
		s.mu.Unlock()
		log.Info("sweep attempt started",
			"attempt", att, "jobs", sw.jobs, "deadline_ms", deadline.Milliseconds())
		sw.events.state(sw.id, StateRunning, "", att)
		sw.events.begin()

		jctx, cancel := context.WithTimeout(ctx, deadline)
		rep, csv, rows := s.executeGrid(jctx, sw, log)
		cancel()
		s.notes.Add(uint64(len(rep.Notes)))

		switch {
		case ctx.Err() != nil:
			// Drain reached us mid-sweep: completed sims are in the
			// store, the rest resumes on the next start. Not a failure.
			s.interrupted.Add(1)
			s.setState(sw, StateInterrupted, "interrupted by drain; resume to finish")
			log.Warn("sweep interrupted by drain", "attempt", att, "rows_delivered", rows)
			return
		case rep.OK():
			if err := s.records.Put(sw.id+".report", []byte(csv)); err != nil {
				s.setState(sw, StateFailed, fmt.Sprintf("writing report: %v", err))
				log.Error("writing report failed", "err", err)
				return
			}
			sw.events.sweepDone(sw.id, rows)
			s.setState(sw, StateDone, "")
			log.Info("sweep done", "attempt", att, "rows", rows)
			return
		case attempt >= s.cfg.MaxRetries || !retryable(rep):
			summary := failureSummary(rep)
			s.setState(sw, StateFailed, summary)
			log.Error("sweep failed", "attempt", att, "retryable", retryable(rep), "failures", summary)
			return
		}
		// Transient failure: back off on the pinned deterministic schedule
		// and re-run; finished sims replay from the store.
		s.retried.Add(1)
		d := backoffDelay(s.cfg.RetrySeed, sw.id, attempt, s.cfg.BackoffBase, s.cfg.BackoffCap)
		if sum := s.backoffMs.Load(); sum != nil {
			sum.Observe(float64(d.Milliseconds()))
		}
		log.Warn("sweep retrying after transient failure",
			"attempt", att, "backoff_ms", d.Milliseconds(), "failures", failureSummary(rep))
		sw.events.state(sw.id, "retrying", failureSummary(rep), att)
		s.backoffWait(ctx, d)
	}
}

// backoffWait sleeps for d but yields early to a drain — a retrying sweep
// must not hold up shutdown for its backoff (the next loop iteration sees
// the cancelled context and marks the sweep interrupted).
func (s *Service) backoffWait(ctx context.Context, d time.Duration) {
	if s.sleep != nil { // test seam
		s.sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// executeGrid runs the sweep's grid through the runner and renders the
// report. Row order is the submission's (workloads outer, policies inner),
// so the CSV is byte-identical for any worker count, any retry count and
// any resume point — the determinism contract the reports inherit from
// TestParallelDeterminism and TestStoreKillAndResume.
func (s *Service) executeGrid(ctx context.Context, sw *sweep, log *slog.Logger) (*runner.Report, string, int) {
	tab := stats.NewTable("sweep "+sw.id, "workload", "policy", "cycles_per_access", "walk_cycle_fraction")
	jobs := gridJobs(sw, tab)
	sw.events.sweepStarted(sw.id, len(jobs), tab.HeaderCSV())
	s.inFlight.Store(int64(len(jobs)))
	defer s.inFlight.Store(0)
	rep := runner.Execute(jobs, runner.Options{
		Parallelism: s.cfg.Parallelism,
		Label:       "sweep/" + sw.id,
		Context:     ctx,
		JobTimeout:  s.cfg.JobTimeout,
		Store:       s.cfg.Store,
		Log:         log,
		OnJob:       s.observeJob,
	})
	return rep, tab.CSV(), tab.NumRows()
}

// observeJob is the runner's submission-order delivery hook: it feeds the
// job-latency summary and the per-source delivery counters, and walks the
// in-flight gauge down as results land.
func (s *Service) observeJob(name, source string, wallMs float64) {
	_ = name
	s.inFlight.Add(-1)
	if sum := s.jobWallMs.Load(); sum != nil {
		sum.Observe(wallMs)
	}
	switch source {
	case "executed":
		s.jobsExecuted.Add(1)
	case "cache":
		s.jobsCache.Add(1)
	case "store":
		s.jobsStore.Add(1)
	case "skipped":
		s.jobsSkipped.Add(1)
	default:
		s.jobsFailed.Add(1)
	}
}

// retryable classifies a report: panics are bugs (retrying reruns the same
// deterministic machine) and cancellations are budget exhaustion (a retry
// would exhaust it again); everything else — sim errors above all — gets
// the retry budget.
func retryable(rep *runner.Report) bool {
	for i := range rep.Failures {
		f := &rep.Failures[i]
		if f.Panic != nil || f.Cancelled() {
			return false
		}
	}
	return true
}

// failureSummary renders a report's failures as one line per job.
func failureSummary(rep *runner.Report) string {
	var b strings.Builder
	for i := range rep.Failures {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(rep.Failures[i].Reason())
	}
	return b.String()
}

// backoffDelay is the pinned retry schedule: capped exponential with
// deterministic jitter. It is a pure function of (seed, sweep id, attempt),
// so a chaos-reproduced failure schedule reproduces the exact same retry
// timeline — determinism extends to the service's failure handling.
func backoffDelay(seed uint64, id string, attempt int, base, cap time.Duration) time.Duration {
	d := base << attempt
	if d > cap || d <= 0 {
		d = cap
	}
	h := sha256.Sum256([]byte(id))
	var idBits uint64
	for i := 0; i < 8; i++ {
		idBits = idBits<<8 | uint64(h[i])
	}
	rng := xrand.New(seed ^ idBits ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15)
	// Jitter into [d/2, d): spreads concurrent retries without breaking
	// reproducibility.
	return d/2 + time.Duration(rng.Uint64n(uint64(d/2)+1))
}

func (s *Service) setState(sw *sweep, state, msg string) {
	s.mu.Lock()
	sw.state = state
	sw.err = msg
	s.mu.Unlock()
}

// snapshotLocked renders a status snapshot from in-memory state; the
// caller holds s.mu. Completed is deliberately NOT filled here: it comes
// from store probes, and disk IO under s.mu would stall every submitter
// and prober behind them. Callers hydrate it via completed() after
// releasing the lock.
func (s *Service) snapshotLocked(sw *sweep) Sweep {
	return Sweep{
		ID:       sw.id,
		Client:   sw.req.Client,
		State:    sw.state,
		Req:      sw.req,
		Jobs:     sw.jobs,
		Attempts: sw.attempts,
		Error:    sw.err,
	}
}

// completed counts the grid cells (by fingerprint) whose results the store
// holds — durable progress that survives restarts, so clients (and the CI
// kill-and-resume gate) can watch it. One presence probe per cell: no
// payload reads, no store Stats, no listing of the whole store.
func (s *Service) completed(fps []string) int {
	n := 0
	for _, fp := range fps {
		if s.cfg.Store.Has(fp) {
			n++
		}
	}
	return n
}

// Get returns a sweep's status snapshot.
func (s *Service) Get(id string) (Sweep, bool) {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	var snap Sweep
	if ok {
		snap = s.snapshotLocked(sw)
	}
	s.mu.Unlock()
	if !ok {
		return Sweep{}, false
	}
	snap.Completed = s.completed(sw.fps)
	return snap, true
}

// List returns all known sweeps sorted by id. The in-memory snapshot is
// taken under s.mu; the per-sweep store probes run after release.
func (s *Service) List() []Sweep {
	s.mu.Lock()
	ids := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Sweep, 0, len(ids))
	fps := make([][]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.snapshotLocked(s.sweeps[id]))
		fps = append(fps, s.sweeps[id].fps)
	}
	s.mu.Unlock()
	for i := range out {
		out[i].Completed = s.completed(fps[i])
	}
	return out
}

// QueueDepth returns the number of queued sweeps.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedN
}

// report reads a sweep's verified report. A torn entry is quarantined and
// returns store.ErrCorrupt.
func (s *Service) report(id string) ([]byte, error) { return s.records.Get(id + ".report") }
