// Command experiments regenerates every figure and table of the paper's
// evaluation section, printing each as text and writing a CSV per
// experiment into the report directory (mirroring the artifact's
// ./scripts/run_figure_*.sh + compile_report.py pipeline).
//
//	experiments                  # full scale (≈10–15 minutes)
//	experiments -quick           # half scale (≈2 minutes)
//	experiments -only fig9,tab3  # subset
//	experiments -parallel 8      # 8 simulation workers (output is identical)
//	experiments -timeout 2m      # bound each simulation job
//	experiments -deadline 30m    # bound the whole run
//	experiments -resume          # reuse the <out>/checkpoint store of a killed run
//	experiments -trace           # Perfetto trace + time series per experiment
//	experiments -http :8080      # live /metrics, /progress, /debug/pprof
//	experiments -store fs:cache  # shared store instead: reuse any previous run's results
//	experiments -serve -http :8080 -store fs:cache
//	                             # durable sweep service: POST /sweeps, drain on SIGTERM
//
// A failing experiment job (panic, error, timeout) does not abort the run:
// the remaining jobs complete, the rows that depend on the failed job are
// reported as skipped with the failure's reason, and the process exits
// non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	trident "repro"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/store"
)

// perfRecord is one experiment's wall-time and memo-cache activity, written
// to perf.json in the report directory. The file is diagnostic (wall times
// vary run to run); the CSVs remain the only deterministic artifacts.
type perfRecord struct {
	Key        string  `json:"key"`
	Name       string  `json:"name"`
	WallMillis float64 `json:"wall_ms"`
	CacheHits  uint64  `json:"cache_hits"`
	CacheMiss  uint64  `json:"cache_misses"`
	// StoreHits counts jobs reloaded from the persistent result store.
	StoreHits int `json:"store_hits,omitempty"`
	// PhaseWallMs breaks the executed jobs' wall time down by simulation
	// phase (build/populate/measure-early/daemons/measure), summed across
	// the experiment's jobs. Cache hits contribute nothing.
	PhaseWallMs map[string]float64 `json:"phase_wall_ms,omitempty"`
}

// perfSummary is the whole run: per-experiment records plus totals.
type perfSummary struct {
	Workers      int          `json:"workers"`
	WallMillis   float64      `json:"wall_ms"`
	UniqueSims   uint64       `json:"unique_simulations"`
	CacheHits    uint64       `json:"cache_hits"`
	StoreHits    uint64       `json:"store_hits"`
	CacheEntries int          `json:"cache_entries"`
	Experiments  []perfRecord `json:"experiments"`
}

type experiment struct {
	key  string
	name string
	run  func(trident.Settings) *trident.Table
}

var all = []experiment{
	{"fig1", "figure1", trident.Figure1},
	{"fig2", "figure2", trident.Figure2},
	{"fig3", "figure3", trident.Figure3},
	{"fig4", "figure4", trident.Figure4},
	{"fig7", "figure7", trident.Figure7},
	{"fig9", "figure9", trident.Figure9},
	{"fig10", "figure10", trident.Figure10},
	{"fig11", "figure11", trident.Figure11},
	{"fig12", "figure12", trident.Figure12},
	{"fig13", "figure13", trident.Figure13},
	{"tab3", "table3", trident.Table3},
	{"tab4", "table4", trident.Table4},
	{"tab5", "table5", trident.Table5},
	{"faultlat", "fault_latency", trident.FaultLatency},
	{"pvlat", "pv_latency", trident.PvLatency},
	{"directmap", "direct_map", trident.DirectMap},
	{"tlbsweep", "tlb_sweep", trident.TLBSweep},
}

func validKeys() string {
	keys := make([]string, len(all))
	for i, e := range all {
		keys[i] = e.key
	}
	return strings.Join(keys, ",")
}

func main() {
	if err := run(); err != nil {
		slog.Error("experiments failed", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out        = flag.String("out", "report", "directory for CSV output")
		quick      = flag.Bool("quick", false, "half-scale run (faster)")
		only       = flag.String("only", "", "comma-separated experiment keys (default: all); keys: "+validKeys())
		seed       = flag.Uint64("seed", 1, "random seed (must be nonzero)")
		parallel   = flag.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS); output is identical for any value")
		cpuprofile = flag.String("cpuprofile", "", "write CPU profile to file")
		memprofile = flag.String("memprofile", "", "write heap profile to file on exit")
		timeout    = flag.Duration("timeout", 0, "per-job time limit; a job over it is recorded as failed (0 = none)")
		deadline   = flag.Duration("deadline", 0, "whole-run time limit; remaining jobs are skipped past it (0 = none)")
		resume     = flag.Bool("resume", false, "reload results stored under <out>/checkpoint by a previous run; without it that store is cleared at startup")
		trace      = flag.Bool("trace", false, "write a Perfetto trace (<out>/trace/<experiment>.json) and per-batch time series (<out>/trace/<experiment>-series.csv) per experiment; results are unchanged")
		sampleEach = flag.Int("sample-every", 1, "with -trace: record one time-series sample every N measurement batches (0 disables the series)")
		httpAddr   = flag.String("http", "", "serve /metrics (Prometheus), /progress (JSON) and /debug/pprof on this address while running (e.g. :8080)")
		logJSON    = flag.Bool("logjson", false, "emit diagnostics as JSON (slog) instead of text; tables still print to stdout")
		logLevel   = flag.String("loglevel", "info", "diagnostics verbosity: debug (per-job delivery lines), info, warn or error")
		storeURL   = flag.String("store", "", `persistent result store: reuse results published by previous runs and publish new ones. A batch run takes "fs:<dir>" (shared, never cleared) in place of <out>/checkpoint; -serve also takes "mem:"`)
		serve      = flag.Bool("serve", false, "run as the sweep service instead of a batch: accept sweep submissions on the -http server (POST /sweeps) until SIGTERM, then drain and exit 0")
	)
	flag.Usage = func() {
		o := flag.CommandLine.Output()
		fmt.Fprint(o, "Usage: experiments [flags]\n\nRegenerates the paper's figures and tables as CSVs.\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprint(o, `
Examples:
  experiments -quick                 half-scale run of everything
  experiments -only fig9,tab3       just Figure 9 and Table 3
  experiments -timeout 2m           give up on any single simulation after 2 minutes
  experiments -deadline 30m         stop the whole run after 30 minutes
  experiments -resume               after a crash or kill: reuse the <out>/checkpoint
                                    store and recompute only unfinished experiments
  experiments -trace -only fig9     write report/trace/figure9.json (open in
                                    https://ui.perfetto.dev) and figure9-series.csv
  experiments -http :8080           watch a long run live: curl /progress, /metrics
  experiments -store fs:cache       publish/reuse results across processes via a
                                    checksummed content-addressed store
  experiments -serve -http :8080 -store fs:cache -out svc
                                    run as the sweep service: submit grids with
                                    POST /sweeps (see cmd/sweepctl), SIGTERM drains,
                                    restart with -resume finishes interrupted sweeps
`)
	}
	flag.Parse()

	// Diagnostics go to stderr through slog; tables and CSVs are the real
	// output and stay on stdout / in -out. The handler is obs.Correlated,
	// so records logged with a request context inherit its sweep_id.
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("-loglevel %q: %w", *logLevel, err)
	}
	slog.SetDefault(obs.NewLogger(os.Stderr, *logJSON, level))

	// Seed 0 is reserved internally as "unset" and would be silently
	// remapped to 1; reject it here so -seed 0 and -seed 1 can't be
	// mistaken for distinct runs.
	if *seed == 0 {
		return fmt.Errorf("-seed 0 is reserved (it means \"unset\" and would alias -seed 1); pick a nonzero seed")
	}

	if *serve {
		return runServe(*out, *httpAddr, *storeURL, *parallel, *timeout, *seed, *resume)
	}

	settings := trident.FullScale()
	if *quick {
		settings = trident.QuickScale()
	}
	settings.Seed = *seed
	settings.Parallelism = *parallel
	settings.Log = slog.Default().With("component", "runner")

	selected := map[string]bool{}
	if *only != "" {
		valid := map[string]bool{}
		for _, e := range all {
			valid[e.key] = true
		}
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !valid[k] {
				return fmt.Errorf("unknown experiment key %q; valid keys: %s", k, validKeys())
			}
			selected[k] = true
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	// Completed simulations are published to an fs: result store keyed by
	// the memo-cache fingerprint; a re-run reloads them byte-identically and
	// computes only what is missing. -store fs:DIR names a shared store
	// that is never cleared. Otherwise the store is <out>/checkpoint,
	// cleared at startup unless -resume so stale results never leak in.
	ckptDir := filepath.Join(*out, "checkpoint")
	if *storeURL != "" {
		scheme, dir, _ := strings.Cut(*storeURL, ":")
		if scheme != "fs" || dir == "" {
			return fmt.Errorf("-store %q: a batch run needs a durable fs:<dir> store (a mem: store dies with the process, and the memo cache already covers that)", *storeURL)
		}
		ckptDir = dir
	} else if !*resume {
		if err := os.RemoveAll(ckptDir); err != nil {
			return fmt.Errorf("clearing checkpoint store: %w", err)
		}
	}
	settings.Checkpoint = ckptDir

	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	settings.Ctx = ctx
	settings.Timeout = *timeout

	var fails runner.FailureLog
	settings.Failures = &fails

	if *trace {
		traceDir := filepath.Join(*out, "trace")
		sampleEvery := *sampleEach
		settings.Obs = func(label string) *obs.Observer {
			return obs.NewObserver(
				filepath.Join(traceDir, label+".json"),
				filepath.Join(traceDir, label+"-series.csv"),
				sampleEvery, true)
		}
	}

	if *httpAddr != "" {
		ln, srv, err := serveHTTP(*httpAddr, newMux(newMetrics()))
		if err != nil {
			return err
		}
		defer srv.Close()
		slog.Info("serving diagnostics", "addr", ln.Addr().String(),
			"endpoints", "/metrics /progress /debug/pprof")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	totalStart := time.Now()
	var records []perfRecord
	for _, e := range all {
		if len(selected) > 0 && !selected[e.key] {
			continue
		}
		before := runner.Cache()
		start := time.Now()
		table := e.run(settings)
		elapsed := time.Since(start).Round(time.Millisecond)
		after := runner.Cache()
		fmt.Println(table)
		path := filepath.Join(*out, e.name+".csv")
		if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		rec := perfRecord{
			Key:        e.key,
			Name:       e.name,
			WallMillis: float64(elapsed) / float64(time.Millisecond),
			CacheHits:  after.Hits - before.Hits,
			CacheMiss:  after.Misses - before.Misses,
		}
		if p, ok := runner.ProgressFor(e.name); ok {
			rec.StoreHits = p.StoreHits
			if len(p.PhaseWallMs) > 0 {
				rec.PhaseWallMs = p.PhaseWallMs
			}
		}
		slog.Info("experiment done", "csv", path, "wall", elapsed.String(),
			"cache_hits", rec.CacheHits, "cache_misses", rec.CacheMiss)
		records = append(records, rec)
	}
	cs := runner.Cache()
	totalElapsed := time.Since(totalStart).Round(time.Millisecond)
	slog.Info("run complete", "experiments", len(records), "wall", totalElapsed.String(),
		"workers", workers, "unique_simulations", cs.Misses, "cache_hits", cs.Hits,
		"store_hits", cs.StoreHits)

	summary := perfSummary{
		Workers:      workers,
		WallMillis:   float64(totalElapsed) / float64(time.Millisecond),
		UniqueSims:   cs.Misses,
		CacheHits:    cs.Hits,
		StoreHits:    cs.StoreHits,
		CacheEntries: cs.Entries,
		Experiments:  records,
	}
	buf, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	perfPath := filepath.Join(*out, "perf.json")
	if err := os.WriteFile(perfPath, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", perfPath, err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	// Durability notes never fail the run — the results they annotate were
	// delivered correctly — but each one is a disk misbehaving; say so.
	for _, n := range fails.Notes() {
		slog.Warn("durability incident (result delivered, entry re-executed or lost)", "note", n.Reason())
	}

	if fl := fails.All(); len(fl) > 0 {
		for i := range fl {
			slog.Error("job did not complete; its rows are missing from the CSVs", "job", fl[i].Reason())
		}
		retry := "re-run with -resume"
		if *storeURL != "" {
			retry = "re-run with the same -store"
		}
		return fmt.Errorf("%d job(s) failed (%s to retry only the unfinished work)", len(fl), retry)
	}
	return nil
}

// runServe is the -serve mode: the process becomes the durable sweep
// service. The -http server grows the service API (POST /sweeps, status,
// reports, /healthz, /readyz) next to the usual diagnostics endpoints, and
// the process runs until SIGTERM/SIGINT — then drains: admission stops,
// the in-flight sweep stops at its batch boundary, the store flushes, and
// the process exits 0. Restarting with -resume finishes
// every interrupted sweep to byte-identical reports.
func runServe(out, addr, storeURL string, parallel int, timeout time.Duration, seed uint64, resume bool) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var st *store.Store
	if storeURL != "" {
		var err error
		if st, err = store.Open(storeURL); err != nil {
			return err
		}
		st.SetLogger(slog.Default().With("component", "store"))
		defer func() {
			// Close flushes the store; a failed flush means results this
			// run believed durable may not be on disk.
			if cerr := st.Close(); cerr != nil {
				slog.Error("closing store (published results may not be durable)", "err", cerr)
			}
		}()
	}
	svc, err := service.New(service.Config{
		Dir:         out,
		Store:       st,
		Parallelism: parallel,
		JobTimeout:  timeout,
		RetrySeed:   seed,
		Resume:      resume,
		Log:         slog.Default().With("component", "service"),
	})
	if err != nil {
		return err
	}

	reg := newMetrics()
	svc.RegisterMetrics(reg)
	mux := newMux(reg)
	api := svc.Handler()
	for _, route := range []string{"/sweeps", "/sweeps/", "/healthz", "/readyz"} {
		mux.Handle(route, api)
	}
	ln, srv, err := serveHTTP(addr, mux)
	if err != nil {
		return err
	}
	defer srv.Close()
	// The bound address lands in <out>/addr so scripts (and the CI smoke
	// gate) can use ":0" and still find the service.
	if err := store.WriteFileAtomic(filepath.Join(out, "addr"), []byte(ln.Addr().String()+"\n")); err != nil {
		return err
	}
	slog.Info("sweep service ready", "addr", ln.Addr().String(), "store", storeURL,
		"resume", resume, "endpoints", "/sweeps /healthz /readyz /metrics /progress /debug/pprof")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := svc.Run(ctx); err != nil {
		return err
	}
	slog.Info("drained; exiting cleanly")
	return nil
}

// newMux builds the diagnostics mux: the obs metrics registry on /metrics,
// live experiment progress as JSON on /progress, and the standard pprof
// handlers under /debug/pprof.
func newMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		if r.Context().Err() != nil {
			return // client already gone; skip the snapshot
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(runner.Progress())
	})
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// serveHTTP binds synchronously (so a bad address fails the run
// immediately) and serves until the listener or server closes. The header
// and write timeouts keep a stalled client from pinning a connection —
// except pprof profile captures, which legitimately stream for ~30s, so
// the write timeout stays generous.
func serveHTTP(addr string, mux http.Handler) (net.Listener, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("-http %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      2 * time.Minute,
	}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) &&
			!strings.Contains(err.Error(), "use of closed network connection") {
			slog.Error("diagnostics server stopped", "err", err)
		}
	}()
	return ln, srv, nil
}

// newMetrics builds the Prometheus registry over the runner's live state.
// Everything is a scrape-time GaugeFunc, so the registry itself holds no
// state and never touches the simulation hot path.
func newMetrics() *obs.Registry {
	reg := obs.NewRegistry()
	reg.GaugeFunc("trident_cache_hits_total", "simulations served from the memo cache", func() float64 {
		return float64(runner.Cache().Hits)
	})
	reg.GaugeFunc("trident_cache_misses_total", "unique simulations executed", func() float64 {
		return float64(runner.Cache().Misses)
	})
	reg.GaugeFunc("trident_store_loaded_total", "simulations reloaded from the persistent result store", func() float64 {
		return float64(runner.Cache().StoreHits)
	})
	reg.GaugeFunc("trident_cache_entries", "live memo-cache entries", func() float64 {
		return float64(runner.Cache().Entries)
	})
	sumProgress := func(f func(runner.ExperimentProgress) int) func() float64 {
		return func() float64 {
			n := 0
			for _, p := range runner.Progress() {
				n += f(p)
			}
			return float64(n)
		}
	}
	reg.GaugeFunc("trident_jobs_queued", "jobs submitted across all experiments",
		sumProgress(func(p runner.ExperimentProgress) int { return p.Jobs }))
	reg.GaugeFunc("trident_jobs_running", "jobs currently executing",
		sumProgress(func(p runner.ExperimentProgress) int { return p.Running }))
	reg.GaugeFunc("trident_jobs_done", "jobs completed successfully",
		sumProgress(func(p runner.ExperimentProgress) int { return p.Done }))
	reg.GaugeFunc("trident_jobs_failed", "jobs failed, skipped or panicked",
		sumProgress(func(p runner.ExperimentProgress) int { return p.Failed }))
	quantile := func(p float64) func() float64 {
		return func() float64 {
			_, vs := runner.JobWallQuantiles([]float64{p})
			return vs[0]
		}
	}
	reg.GaugeFunc("trident_job_wall_ms_p50", "median job wall time (ms)", quantile(50))
	reg.GaugeFunc("trident_job_wall_ms_p95", "95th-percentile job wall time (ms)", quantile(95))
	reg.GaugeFunc("trident_job_wall_ms_p99", "99th-percentile job wall time (ms)", quantile(99))
	return reg
}
