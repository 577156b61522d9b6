package main

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
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
)

// workloadDef is one of the benchmark's input sets. An experiment workload
// calls one public experiment driver; the sweep service is the other kind.
type workloadDef struct {
	name string
	// label is the runner label of the experiment driver's batches; it
	// keys the output hashes. Empty for the sweep service.
	label    string
	driver   func(experiments.Settings) *stats.Table
	settings func() experiments.Settings
}

// fig10Settings shrinks Figure 10's machine to 4GB at 1/8 scale. At
// Quick() size one Figure 10 call takes ~14 s on 2 CPUs, which leaves no
// room for a warm-up and repeated iterations within one run; at this size
// a call takes ~4.5 s and the phase shares stay as at Quick() size (build
// ~60%, daemons and population ~20% each, measurement ~2%).
func fig10Settings() experiments.Settings {
	s := experiments.Quick()
	s.MemGB = 4
	s.Scale = 0.125
	return s
}

var workloads = []*workloadDef{
	{name: "fig9-native", label: "figure9", driver: experiments.Figure9, settings: experiments.Quick},
	{name: "fig10-frag", label: "figure10", driver: experiments.Figure10, settings: fig10Settings},
	{name: "fig12-virt", label: "figure12", driver: experiments.Figure12, settings: experiments.Quick},
	{name: "sweep-service"},
}

// minIters is the fewest timed iterations a workload process runs
// whatever its budget: every process contributes more than one sample, and
// a traced sweep-service process makes the 100 store writes its p90 needs.
const minIters = 2

// warmRepeats is how many times an experiment iteration repeats its driver
// call after a simulated restart, every job reloaded from the checkpoint
// journal.
const warmRepeats = 20

// sample is one timed iteration of a workload process.
type sample struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"`
	CalibMs  float64 `json:"calib_ms"`
	GCCycles uint32  `json:"gc_cycles"`
}

// childResult is what one workload process reports to the parent.
type childResult struct {
	Workload string   `json:"workload"`
	Workers  int      `json:"workers"`
	SetupS   float64  `json:"setup_s"`
	Iters    []sample `json:"iters"`
	// ColdMs and WarmMs are request latencies: an experiment driver call
	// that simulates / is served from the memo cache, or a sweep that
	// simulates / is served from the result store after a restart.
	ColdMs []float64 `json:"cold_ms"`
	WarmMs []float64 `json:"warm_ms"`
	// JobMs is host wall time per executed simulation job (timed
	// iterations only).
	JobMs     []float64 `json:"job_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	// Outputs maps each request key to the sha256 of its output.
	Outputs map[string]string `json:"outputs"`
	// Layers is filled by traced processes only.
	Layers *layerData `json:"layers,omitempty"`
}

// layerData is what a traced process measures per layer.
type layerData struct {
	// Phases holds, per timed iteration, the simulation phases' wall ms
	// summed over jobs, plus "batch" (Execute wall ms summed over batches).
	Phases []map[string]float64 `json:"phases"`
	// Counts are the obs-series totals of one cold request per iteration.
	Counts []map[string]float64 `json:"counts,omitempty"`
	// Accesses is the measured reference count of one simulation job.
	Accesses int `json:"accesses"`
	// Store driver calls and service HTTP timings (sweep service only).
	PutMs     []float64 `json:"put_ms,omitempty"`
	GetMs     []float64 `json:"get_ms,omitempty"`
	StoreGets uint64    `json:"store_gets"`
	StoreHits uint64    `json:"store_hits"`
	SubmitMs  []float64 `json:"submit_ms,omitempty"`
	QueueMs   []float64 `json:"queue_ms,omitempty"`
	ReportMs  []float64 `json:"report_ms,omitempty"`
	// Profile is the CPU profile of the timed iterations; ProfileCPUMs is
	// the process CPU time over the same window.
	Profile      string  `json:"profile"`
	ProfileCPUMs float64 `json:"profile_cpu_ms"`
}

// session is one workload process's state: set up once, warmed up once,
// then iterated.
type session interface {
	warmUp()
	// iterate runs one timed iteration; parent is its span.
	iterate(it, parent int) error
	close() error
}

// env is what a session needs from its process.
type env struct {
	w *workloadDef
	// seed is this process's input seed; index its place in the run,
	// which prefixes its output keys.
	seed   uint64
	index  int
	out    string
	res    *childResult
	tr     *tracer
	traced bool
	jobs   *jobLog
}

func (e *env) problem(format string, args ...any) {
	e.res.Failed++
	if len(e.res.Problems) < 20 {
		e.res.Problems = append(e.res.Problems, fmt.Sprintf(format, args...))
	}
}

// output records a request's output hash under key; a hash differing from
// the one recorded for key before is a failed request.
func (e *env) output(key, hash string) {
	key = fmt.Sprintf("p%d/%s", e.index, key)
	if prev, ok := e.res.Outputs[key]; ok && prev != hash {
		e.problem("%s: output %.12s differs from earlier %.12s", key, hash, prev)
		return
	}
	e.res.Outputs[key] = hash
}

func hashOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runChildMain is the entry point of a workload process.
func runChildMain(o options, stdout, stderr io.Writer) int {
	spawned := time.Now()
	if o.spawnedNs > 0 {
		spawned = time.Unix(0, o.spawnedNs)
	}
	ws, err := selectWorkloads(o.workload)
	if err != nil || len(ws) != 1 || (o.child != "run" && o.child != "trace") {
		fmt.Fprintln(stderr, "bench: a workload process needs -child run|trace and one -workload")
		return 2
	}
	res, err := runProcess(ws[0], o.seed, o.index, o.out, o.child == "trace", spawned,
		time.Duration(o.budgetMs)*time.Millisecond, minIters)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", ws[0].name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runProcess sets up the workload, warms it up, then runs timed iterations
// until budget has passed and at least iters of them have run.
func runProcess(w *workloadDef, seed uint64, index int, out string, traced bool, spawned time.Time, budget time.Duration, iters int) (_ *childResult, err error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("calibration ring: %w", err)
	}
	defer func() { err = errors.Join(err, cal.close()) }()
	e := &env{w: w, seed: inputSeed(seed, index), index: index, out: out, traced: traced, jobs: &jobLog{},
		res: &childResult{Workload: w.name, Workers: workers(), Outputs: map[string]string{}}}
	if traced {
		e.tr = newTracer(spawned)
		e.res.Layers = &layerData{}
	}
	root := e.tr.begin(w.name, 0, map[string]any{"seed": seed})

	setup := e.tr.begin("setup", root, nil)
	var s session
	if w.driver != nil {
		s = newExpSession(e)
	} else if s, err = newSvcSession(e); err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	s.warmUp()
	e.jobs.drain()
	e.res.SetupS = time.Since(spawned).Seconds()
	e.tr.end(setup)

	var prof *os.File
	var cpu0 time.Duration
	if traced {
		e.res.Layers.Profile = filepath.Join(out, "cpu.pprof")
		if prof, err = os.Create(e.res.Layers.Profile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, errors.Join(err, prof.Close())
		}
		cpu0 = cpuTime()
	}
	start := time.Now()
	for it := 0; it < iters || time.Since(start) < budget; it++ {
		calib := cal.run()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0, t0 := cpuTime(), time.Now()
		span := e.tr.begin("iteration", root, map[string]any{"iteration": it})
		err := s.iterate(it, span)
		e.tr.end(span)
		wall, c1 := time.Since(t0), cpuTime()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, fmt.Errorf("iteration %d: %w", it, err)
		}
		e.res.Iters = append(e.res.Iters, sample{
			WallS:    wall.Seconds(),
			CPUS:     (c1 - c0).Seconds(),
			AllocMB:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			CalibMs:  calib,
			GCCycles: ms1.NumGC - ms0.NumGC,
		})
		for _, j := range e.jobs.drain() {
			if j.source == "executed" {
				e.res.JobMs = append(e.res.JobMs, j.wallMs)
			}
		}
	}
	if traced {
		pprof.StopCPUProfile()
		e.res.Layers.ProfileCPUMs = float64((cpuTime() - cpu0).Microseconds()) / 1e3
		if err := prof.Close(); err != nil {
			return nil, err
		}
	}
	e.tr.end(root)
	e.res.PeakRSSMB = peakRSSMB() - calibRingBytes/(1<<20)
	if traced {
		if err := e.tr.writeChrome(filepath.Join(out, "trace.json")); err != nil {
			return nil, err
		}
	}
	return e.res, nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set: VmHWM, which getrusage
// reports as the maximum RSS (in kB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// jobLog is a slog.Handler keeping the runner's per-job delivery records
// ("job delivered": memo source and wall ms) in memory.
type jobLog struct {
	mu   sync.Mutex
	jobs []jobRecord
}

type jobRecord struct {
	source string
	wallMs float64
}

func (l *jobLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *jobLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *jobLog) WithGroup(string) slog.Handler            { return l }

func (l *jobLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "job delivered" {
		return nil
	}
	var j jobRecord
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "source":
			j.source = a.Value.String()
		case "wall_ms":
			if v, ok := a.Value.Any().(float64); ok {
				j.wallMs = v
			}
		}
		return true
	})
	l.mu.Lock()
	l.jobs = append(l.jobs, j)
	l.mu.Unlock()
	return nil
}

func (l *jobLog) drain() []jobRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.jobs
	l.jobs = nil
	return out
}

// phaseTotals sums the runner's per-batch progress over every label:
// simulation phase wall ms (summed over jobs) and, under "batch", the
// batches' own wall ms.
func phaseTotals() map[string]float64 {
	out := map[string]float64{}
	for _, p := range runner.Progress() {
		out["batch"] += p.WallMs
		for phase, ms := range p.PhaseWallMs {
			out[phase] += ms
		}
	}
	return out
}

func deltaOf(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// expSession drives one public experiment driver.
type expSession struct {
	*env
	s        experiments.Settings
	failures *runner.FailureLog
	// series is the series CSV the next cold call writes ("" = no obs).
	series string
}

func newExpSession(e *env) *expSession {
	x := &expSession{env: e, failures: &runner.FailureLog{}}
	x.s = e.w.settings()
	x.s.Seed = e.seed
	x.s.Parallelism = workers()
	x.s.Failures = x.failures
	x.s.Log = slog.New(e.jobs)
	if e.traced {
		x.s.Obs = func(string) *obs.Observer {
			if x.series == "" {
				return nil
			}
			return obs.NewObserver("", x.series, 1, false)
		}
	}
	return x
}

// inputSeed is the seed of process index's inputs in a run with the given
// benchmark seed: distinct per process, so a run averages over runChildren
// input sets, and never 0, which the simulator reserves for "unset".
func inputSeed(seed uint64, index int) uint64 {
	return seed*runChildren + uint64(index) + 1
}

// gridRows is the row count of every experiment workload's table: eight
// 1GB-sensitive workloads × three systems.
const gridRows = 24

// call runs the driver once with the checkpoint journal in dir, checks its
// output and returns its latency. A cold call finds the journal empty,
// simulates every job and journals each result. A warm call follows
// runner.ResetCache(), a restart, and reloads every result from the
// journal, as cmd/experiments -resume does. Warm calls run without the job
// log, whose records are only wanted for executed jobs.
func (x *expSession) call(parent int, kind, dir string) time.Duration {
	s := x.s
	s.Checkpoint = dir
	if kind == "warm" {
		runner.ResetCache()
		s.Log = nil
	}
	before := len(x.failures.All())
	span := x.tr.begin(kind+" "+x.w.label, parent, nil)
	t0 := time.Now()
	tab := x.w.driver(s)
	d := time.Since(t0)
	x.tr.end(span)
	x.res.Attempted++
	if fs := x.failures.All(); len(fs) > before {
		x.problem("%s: %d jobs failed, first: %s", x.w.label, len(fs)-before, fs[before].Reason())
	} else if tab.NumRows() != gridRows {
		x.problem("%s: %d rows, want %d", x.w.label, tab.NumRows(), gridRows)
	} else {
		x.output(x.w.label, hashOf([]byte(tab.CSV())))
	}
	return d
}

// request runs one cold call into a new journal, then its warm repeats.
// Journals are never reused or deleted (see runWorkload).
func (x *expSession) request(parent int, name string) (cold time.Duration, warm []time.Duration) {
	dir := filepath.Join(x.out, "checkpoint-"+name)
	runner.ResetCache()
	cold = x.call(parent, "cold", dir)
	restartHeap()
	for r := 0; r < warmRepeats; r++ {
		warm = append(warm, x.call(parent, "warm", dir))
	}
	return cold, warm
}

func (x *expSession) warmUp() { x.request(0, "warmup") }

func (x *expSession) iterate(it, parent int) error {
	var p0 map[string]float64
	if x.traced {
		x.series = filepath.Join(x.out, fmt.Sprintf("series-%03d.csv", it))
		p0 = phaseTotals()
	}
	cold, warm := x.request(parent, fmt.Sprintf("%03d", it))
	x.res.ColdMs = append(x.res.ColdMs, ms(cold))
	for _, d := range warm {
		x.res.WarmMs = append(x.res.WarmMs, ms(d))
	}
	if !x.traced {
		return nil
	}
	l := x.res.Layers
	l.Phases = append(l.Phases, deltaOf(phaseTotals(), p0))
	counts, err := seriesCounts(x.series)
	if err != nil {
		return err
	}
	if len(l.Counts) > 0 && !sameCounts(counts, l.Counts[0]) {
		x.problem("iteration %d: obs counts differ from iteration 0", it)
	}
	l.Counts = append(l.Counts, counts)
	l.Accesses = x.s.Accesses
	return nil
}

func (x *expSession) close() error { return nil }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// restartHeap collects the garbage of the cold requests before the warm
// ones: a restarted process starts with an empty heap, and sub-millisecond
// warm requests timed while the collector works through the cold
// requests' hundreds of MB would measure the collector instead.
func restartHeap() { runtime.GC() }
