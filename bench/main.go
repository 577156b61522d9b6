// Command bench is the repository's benchmark. It runs four workloads —
// Figure 9 on native memory, Figure 10 on fragmented memory, Figure 12
// under virtualization, and the sweep service behind HTTP — each in fresh
// child processes. Untraced runs give the end-to-end metrics; a separate
// traced run gives the per-layer metrics. Every output is checked against
// golden hashes. BENCHMARK.json at the repository root names the workloads
// and metrics; README.md in this directory explains them.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload fig9-native --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -sets 2          # two sets of every workload, spread vs bounds
//	bash bench/run.sh -update-golden -seed 2
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Paths are relative to the repository root, where the benchmark runs.
const (
	specPath   = "BENCHMARK.json"
	goldenDir  = "bench/golden"
	defaultOut = ".bench_build/out"
)

// Untraced runs split their time over runChildren fresh processes, so each
// run sets up runChildren times and pools samples across processes. Each
// process has its own inputs (see inputSeed), so a run averages over
// runChildren input sets. A traced run uses one untraced process (the
// baseline for the tracing overhead) and one traced process, both on the
// inputs of process 0.
const runChildren = 3

// options are the command-line flags. The child-only ones are set by the
// parent process when it starts a workload process.
type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        int
	sets         int
	out          string
	json         bool
	updateGolden bool

	child     string
	index     int
	budgetMs  int64
	spawnedNs int64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (seed 2 is held out for claims)")
	fs.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.IntVar(&o.sets, "sets", 0, "run N sets of every workload and check their spread against the bounds")
	fs.StringVar(&o.out, "out", defaultOut, "directory for profiles, traces, series CSVs and results")
	fs.BoolVar(&o.json, "json", false, "also write the results as JSON to <out>/results.json")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "rewrite the golden output hashes for -seed")
	fs.StringVar(&o.child, "child", "", "internal: run one workload process (run or trace)")
	fs.IntVar(&o.index, "index", 0, "internal: the workload process's index within its run")
	fs.Int64Var(&o.budgetMs, "budget-ms", 0, "internal: measured milliseconds of a workload process")
	fs.Int64Var(&o.spawnedNs, "spawned-ns", 0, "internal: wall clock (ns) at which the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if o.child != "" {
		return runChildMain(o, stdout, stderr)
	}

	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	ws, err := selectWorkloads(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case o.updateGolden:
		return updateGolden(ws, o, stderr)
	case o.sets > 0:
		return runSets(sp, ws, o, stdout, stderr)
	}

	code := 0
	var results []*outcome
	for _, w := range ws {
		oc, err := runWorkload(sp, w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stderr, oc)
		results = append(results, oc)
		if !oc.Correct {
			code = 1
		}
	}
	if o.json {
		if err := writeJSON(filepath.Join(o.out, "results.json"), results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	for _, oc := range results {
		line, err := json.Marshal(oc.resultLine())
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

// spec is the part of BENCHMARK.json the program reads: run length and the
// metric names, units and bounds.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark spec (run from the repository root): %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if sp.RunSeconds <= 0 || len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds, end_to_end and per_layer", path)
	}
	return &sp, nil
}

func selectWorkloads(name string) ([]*workloadDef, error) {
	if name == "" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []*workloadDef{w}, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// workers is the simulation parallelism every workload uses.
func workers() int { return min(runtime.NumCPU(), 2) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run of one workload, as the parent process assembles it
// from its children.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     int      `json:"trace"`
	Workers   int      `json:"workers"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// CalibScale converts this run's timings to reference-box units; every
	// metric with a time unit except calib.loop_ms is reported multiplied
	// by it (see calib.go).
	CalibScale float64           `json:"calib_scale"`
	Metrics    map[string]metric `json:"metrics"`
	// Notes holds, per metric, the spread and sample count printed beside
	// it ("IQR 1.2% n=240").
	Notes map[string]string `json:"notes,omitempty"`
}

// timeUnits are the units whose metrics are scaled to reference-box units.
var timeUnits = map[string]bool{"s": true, "ms": true, "ns": true}

// resultLine is the last line of standard output.
func (oc *outcome) resultLine() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{oc.Correct, oc.Attempted, oc.Failed, oc.Metrics}
}

// runWorkload performs one run: the untraced children (trace 0) or the
// baseline and traced children (trace 1), then the output checks.
func runWorkload(sp *spec, w *workloadDef, o options, stderr io.Writer) (*outcome, error) {
	budget := time.Duration(o.seconds) * time.Second
	// Nothing is deleted while the benchmark runs: on a thin-provisioned
	// disk mounted with discard, freeing a process's thousands of small
	// store and journal files slows the fsyncs of the next minute up to 3×,
	// which reads as a slower service. Every run writes a directory of its
	// own; clear -out between campaigns.
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d-%d", w.name, o.seed, o.trace, time.Now().UnixNano()))
	var rs []*childResult
	if o.trace == 0 {
		for i := 0; i < runChildren; i++ {
			r, err := spawn(w, o, "run", i, budget/runChildren, filepath.Join(dir, fmt.Sprintf("run%d", i)), stderr)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
		}
	} else {
		base, err := spawn(w, o, "run", 0, budget/2, filepath.Join(dir, "base"), stderr)
		if err != nil {
			return nil, err
		}
		traced, err := spawn(w, o, "trace", 0, budget/2, filepath.Join(dir, "traced"), stderr)
		if err != nil {
			return nil, err
		}
		rs = []*childResult{base, traced}
	}

	oc := &outcome{Workload: w.name, Seed: o.seed, Trace: o.trace, Workers: rs[0].Workers}
	golden, err := loadGolden(goldenPath(w.name, o.seed))
	if err != nil {
		return nil, err
	}
	oc.Attempted, oc.Failed, oc.Problems = account(rs, golden)

	var ms map[string]float64
	if o.trace == 0 {
		ms, oc.Notes = endToEnd(rs)
	} else {
		prof, perr := profileModules(rs[1].Layers.Profile)
		if perr != nil {
			return nil, perr
		}
		if ms, err = perLayer(rs[0], rs[1], prof); err != nil {
			oc.Problems = append(oc.Problems, err.Error())
		}
	}
	want := sp.EndToEnd
	if o.trace == 1 {
		want = sp.PerLayer
	}
	oc.CalibScale = calibScale(rs)
	oc.Metrics = map[string]metric{}
	for _, m := range want {
		v, ok := ms[m.Name]
		if !ok {
			oc.Problems = append(oc.Problems, "metric "+m.Name+" was not measured")
			continue
		}
		if timeUnits[m.Unit] && m.Name != "calib.loop_ms" {
			v *= oc.CalibScale
		}
		oc.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	oc.Correct = oc.Failed == 0 && len(oc.Problems) == 0
	return oc, nil
}

// spawn starts one workload process, waits for it and decodes its result.
func spawn(w *workloadDef, o options, role string, index int, budget time.Duration, dir string, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A workload process that overruns its budget by this much is stuck.
	ctx, cancel := context.WithTimeout(context.Background(), budget+150*time.Second)
	defer cancel()
	args := []string{"-child", role, "-index", strconv.Itoa(index), "-workload", w.name,
		"-seed", strconv.FormatUint(o.seed, 10), "-budget-ms", strconv.FormatInt(budget.Milliseconds(), 10), "-out", dir}
	cmd := exec.CommandContext(ctx, exe, append(args, "-spawned-ns", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	// A workload process dies with its parent, so stopping the benchmark
	// never leaves one running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var r childResult
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("%s process printed no result: %w", role, err)
	}
	// Keep the process's raw samples beside its other outputs.
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(last, '\n'), 0o644); err != nil {
		return nil, err
	}
	return &r, nil
}

// account counts attempted and failed requests across the processes of a
// run. A request fails when its jobs failed or it was refused, when its
// output differs from its twin (another iteration, another process, the
// cold run of a warm sweep), or when it differs from the golden hash.
func account(rs []*childResult, golden map[string]string) (attempted, failed int, problems []string) {
	seen := map[string]string{}
	for _, r := range rs {
		attempted += r.Attempted
		failed += r.Failed
		problems = append(problems, r.Problems...)
		keys := make([]string, 0, len(r.Outputs))
		for k := range r.Outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := r.Outputs[k]
			if prev, ok := seen[k]; ok && prev != h {
				failed++
				problems = append(problems, fmt.Sprintf("%s: output differs between processes", k))
			}
			seen[k] = h
			if g, ok := golden[k]; ok && g != h {
				failed++
				problems = append(problems, fmt.Sprintf("%s: output %.12s differs from golden %.12s", k, h, g))
			}
		}
	}
	if attempted == 0 {
		problems = append(problems, "no request was attempted")
	}
	return attempted, failed, problems
}

func goldenPath(workload string, seed uint64) string {
	return filepath.Join(goldenDir, fmt.Sprintf("%s-seed%d.sha256", workload, seed))
}

// loadGolden reads a golden file ("<sha256>  <key>" per line). A missing
// file means the seed has no golden outputs: only twins are compared.
func loadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	g := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		g[f[1]] = f[0]
	}
	return g, nil
}

// updateGolden reruns each workload's processes once and records their
// outputs as the golden hashes for the seed. Use it only when outputs
// change on purpose.
func updateGolden(ws []*workloadDef, o options, stderr io.Writer) int {
	for _, w := range ws {
		var rs []*childResult
		outputs := map[string]string{}
		for i := 0; i < runChildren; i++ {
			// Twice a normal process's budget: the sweep service covers
			// the grids of any normal run with room to spare.
			dir := filepath.Join(o.out, fmt.Sprintf("golden-%s-%d-p%d", w.name, time.Now().UnixNano(), i))
			r, err := spawn(w, o, "run", i, 2*time.Duration(o.seconds)*time.Second/runChildren, dir, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			rs = append(rs, r)
			for k, h := range r.Outputs {
				outputs[k] = h
			}
		}
		if _, failed, problems := account(rs, nil); failed > 0 || len(problems) > 0 {
			fmt.Fprintf(stderr, "bench: %s: not writing golden outputs of a failing run: %v\n", w.name, problems)
			return 1
		}
		keys := make([]string, 0, len(outputs))
		for k := range outputs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", outputs[k], k)
		}
		path := goldenPath(w.name, o.seed)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: wrote %s (%d outputs)\n", path, len(keys))
	}
	return 0
}

// runSets runs every workload o.sets times, untraced and traced, and checks
// that each end-to-end metric's spread between sets (max−min over median)
// stays within its bound and that the deterministic counts repeat exactly.
func runSets(sp *spec, ws []*workloadDef, o options, stdout, stderr io.Writer) int {
	if o.sets < 2 {
		fmt.Fprintln(stderr, "bench: -sets needs at least 2 sets")
		return 2
	}
	code := 0
	var all []*outcome
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	for set := 1; set <= o.sets; set++ {
		for _, w := range ws {
			for _, tr := range []int{0, 1} {
				o.trace = tr
				oc, err := runWorkload(sp, w, o, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
					return 1
				}
				fmt.Fprintf(stderr, "set %d ", set)
				printReport(stderr, oc)
				all = append(all, oc)
				if !oc.Correct {
					code = 1
				}
				for name, m := range oc.Metrics {
					values[key{w.name, name}] = append(values[key{w.name, name}], m.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-18s %10s %10s %8s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range ws {
		for _, m := range sp.EndToEnd {
			v := values[key{w.name, m.Name}]
			s := setSpread(v)
			verdict := "ok"
			if s > m.Bound {
				verdict = "OUT OF BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %10.4g %9.2f%% %7.0f%%  %s\n", w.name, m.Name, median(v), 100*s, 100*m.Bound, verdict)
		}
		for _, name := range countMetrics {
			v := values[key{w.name, name}]
			if setSpread(v) != 0 {
				fmt.Fprintf(stdout, "%-14s %-18s counts differ between sets: %v\n", w.name, name, v)
				code = 1
			}
		}
	}
	if o.json {
		if err := writeJSON(filepath.Join(o.out, "results.json"), all); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// setSpread is the spread between sets: (max − min) / median.
func setSpread(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	if hi == lo {
		return 0
	}
	return (hi - lo) / median(v)
}

func printReport(w io.Writer, oc *outcome) {
	mode := "end-to-end"
	if oc.Trace == 1 {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d (%s, %d workers): correct=%v attempted=%d failed=%d, times ×%.4f to reference-box units\n",
		oc.Workload, oc.Seed, mode, oc.Workers, oc.Correct, oc.Attempted, oc.Failed, oc.CalibScale)
	names := make([]string, 0, len(oc.Metrics))
	for n := range oc.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := oc.Metrics[n]
		fmt.Fprintf(w, "  %-22s %14.6g %-6s %s\n", n, m.Value, m.Unit, oc.Notes[n])
	}
	for _, p := range oc.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
