package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// minP90Samples is the fewest samples a p90 may stand on: ten beyond it.
const minP90Samples = 100

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the i-th of the n-1 cut points dividing xs into n groups,
// computed as Python's statistics.quantiles(xs, n=n) does (the exclusive
// method), so spreads printed here match the ones computed with it.
func quantile(xs []float64, i, n int) float64 {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := ld + 1
	j := i * m / n
	j = max(1, min(j, ld-1))
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// iqrFrac is the interquartile range as a share of the median.
func iqrFrac(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (quantile(xs, 3, 4) - quantile(xs, 1, 4)) / med
}

// p90 is the 90th percentile; it refuses to stand on fewer than
// minP90Samples samples.
func p90(xs []float64) (float64, error) {
	if len(xs) < minP90Samples {
		return 0, fmt.Errorf("p90 needs %d samples, have %d", minP90Samples, len(xs))
	}
	return quantile(xs, 90, 100), nil
}

// endToEnd reduces the untraced processes of a run to the end-to-end
// metrics, with the spread and sample count of each in notes.
func endToEnd(rs []*childResult) (map[string]float64, map[string]string) {
	var setup, rss, wall, cpu, alloc, cold, jobs []float64
	for _, r := range rs {
		setup = append(setup, r.SetupS)
		rss = append(rss, r.PeakRSSMB)
		for _, it := range r.Iters {
			wall = append(wall, it.WallS)
			cpu = append(cpu, it.CPUS)
			alloc = append(alloc, it.AllocMB)
		}
		cold = append(cold, r.ColdMs...)
		jobs = append(jobs, r.JobMs...)
	}
	m, notes := map[string]float64{}, map[string]string{}
	for _, q := range []struct {
		name string
		xs   []float64
	}{
		{"setup_s", setup}, {"peak_rss_mb", rss}, {"wall_s", wall}, {"cpu_s", cpu},
		{"alloc_mb", alloc}, {"cold_ms_p50", cold}, {"job_ms_p50", jobs},
	} {
		m[q.name] = median(q.xs)
		notes[q.name] = fmt.Sprintf("IQR %.1f%% n=%d", 100*iqrFrac(q.xs), len(q.xs))
	}
	return m, notes
}

// countMetrics are the per-layer counts summed from the obs series. They
// repeat exactly for a given seed and code that only changes host speed.
var countMetrics = []string{
	"tlb.accesses", "tlb.l1_hit_rate", "tlb.l2_hits", "pagetable.walks", "pagetable.walk_mem",
	"fault.faults_4k", "fault.faults_2m", "fault.faults_1g",
	"kernel.maps", "kernel.unmaps", "kernel.moves",
}

// seriesColumns maps count metrics to the series CSV columns they sum.
var seriesColumns = map[string][]string{
	"tlb.accesses":       {"acc_4k", "acc_2m", "acc_1g"},
	"tlb.l2_hits":        {"l2_hits"},
	"pagetable.walks":    {"walks"},
	"pagetable.walk_mem": {"walk_mem"},
	"fault.faults_4k":    {"faults_4k"},
	"fault.faults_2m":    {"faults_2m"},
	"fault.faults_1g":    {"faults_1g"},
	"kernel.maps":        {"kmaps"},
	"kernel.unmaps":      {"kunmaps"},
	"kernel.moves":       {"kmoves"},
}

// seriesCounts sums an obs time-series CSV into the count metrics.
func seriesCounts(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sumSeries(f)
}

func sumSeries(r io.Reader) (map[string]float64, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("series: %w", err)
	}
	if len(rows) < 2 {
		return nil, errors.New("series: no samples")
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	out := map[string]float64{}
	for name, cols := range seriesColumns {
		for _, c := range cols {
			i, ok := col[c]
			if !ok {
				return nil, fmt.Errorf("series: no column %q", c)
			}
			for _, row := range rows[1:] {
				v, err := strconv.ParseFloat(row[i], 64)
				if err != nil {
					return nil, fmt.Errorf("series: column %s: %w", c, err)
				}
				out[name] += v
			}
		}
	}
	if acc := out["tlb.accesses"]; acc > 0 {
		out["tlb.l1_hit_rate"] = 1 - (out["tlb.l2_hits"]+out["pagetable.walks"])/acc
	}
	return out, nil
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// layerOf maps a package path to its layer. Packages of the repository
// that are not a layer of their own, the standard library outside the
// runtime, and the benchmark itself fall into "other".
var layerOf = map[string]string{
	"repro/internal/workload":  "workload",
	"repro/internal/stream":    "workload",
	"repro/internal/xrand":     "workload",
	"repro/internal/tlb":       "tlb",
	"repro/internal/mmu":       "mmu",
	"repro/internal/pagetable": "pagetable",
	"repro/internal/fault":     "fault",
	"repro/internal/kernel":    "kernel",
	"repro/internal/vmm":       "kernel",
	"repro/internal/phys":      "phys",
	"repro/internal/buddy":     "buddy",
	"repro/internal/fragment":  "fragment",
	"repro/internal/promote":   "promote",
	"repro/internal/core":      "promote",
	"repro/internal/zerofill":  "promote",
	"repro/internal/compact":   "compact",
	"repro/internal/hawkeye":   "hawkeye",
	"repro/internal/virt":      "virt",
	"repro/internal/sim":       "sim",
	"repro/internal/runner":    "runner",
	"repro/internal/store":     "store",
	"repro/internal/service":   "service",
}

// modules are the profile buckets, each reported as <module>.self_ms.
var modules = []string{
	"workload", "tlb", "mmu", "pagetable", "fault", "kernel", "phys", "buddy", "fragment",
	"promote", "compact", "hawkeye", "virt", "sim", "runner", "store", "service", "runtime", "other",
}

// moduleOf buckets a profiled function name by its package: closures
// (f.func1), method values (T.M-fm), inlined callees and generic
// instantiations (F[...]) all belong to the package that declares them.
func moduleOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	fn = strings.TrimPrefix(fn, "type:.eq.") // compiler-generated equality
	if strings.HasPrefix(fn, "[") {
		return "other" // a pseudo-frame such as [unknown]
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	} else if slash < 0 {
		// No package qualifier: an assembly routine of the runtime
		// (gcWriteBarrier, gogo).
		return "runtime"
	}
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileModules sums a CPU profile's self (flat) time per module, in ms,
// from `go tool pprof -top`.
func profileModules(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errb.String()))
	}
	return parseTop(&out)
}

// parseTop reads pprof -top output: a header, then one line per function,
// "flat flat% sum% cum cum% name".
func parseTop(r io.Reader) (map[string]float64, error) {
	sums := map[string]float64{}
	sc := bufio.NewScanner(r)
	inTable := false
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 2 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		// The name is everything after the five numeric columns.
		sums[moduleOf(strings.Join(f[5:], " "))] += v
	}
	if !inTable {
		return nil, errors.New("pprof output has no table")
	}
	return sums, sc.Err()
}

// perLayer assembles the per-layer metrics from a run's untraced baseline
// process and its traced process; prof is the traced profile per module.
// Layers a workload does not use read 0.
func perLayer(base, traced *childResult, prof map[string]float64) (map[string]float64, error) {
	l := traced.Layers
	iters := float64(len(traced.Iters))
	m := map[string]float64{}
	var total float64
	for _, mod := range modules {
		m[mod+".self_ms"] = prof[mod] / iters
		total += prof[mod]
	}
	m["trace.profile_frac"] = ratio(total, l.ProfileCPUMs)

	phase := func(name string) []float64 {
		var xs []float64
		for _, p := range l.Phases {
			xs = append(xs, p[name])
		}
		return xs
	}
	m["sim.build_ms"] = median(phase("build"))
	m["sim.populate_ms"] = median(phase("populate"))
	m["sim.daemons_ms"] = median(phase("daemons"))
	m["sim.measure_ms"] = median(phase("measure"))
	var busy, batch, measured float64
	for _, p := range l.Phases {
		busy += p["build"] + p["populate"] + p["daemons"] + p["measure-early"] + p["measure"]
		batch += p["batch"]
		measured += p["measure"]
	}
	m["runner.busy_frac"] = ratio(busy, batch*float64(traced.Workers))
	m["sim.ns_per_ref"] = ratio(measured*1e6, float64(len(traced.JobMs))*float64(l.Accesses))

	for _, name := range countMetrics {
		if len(l.Counts) > 0 {
			m[name] = l.Counts[0][name]
		} else {
			m[name] = 0 // the sweep service exposes no obs series
		}
	}
	var errs []error
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"store.put_ms", l.PutMs}, {"store.get_ms", l.GetMs}} {
		m[q.name+"_p50"] = median(q.xs)
		m[q.name+"_p90"] = 0
		if len(q.xs) > 0 {
			v, err := p90(q.xs)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s_p90: %w", q.name, err))
			}
			m[q.name+"_p90"] = v
		}
	}
	m["store.hit_ratio"] = ratio(float64(l.StoreHits), float64(l.StoreGets))
	m["service.submit_ms_p50"] = median(l.SubmitMs)
	m["service.queue_ms_p50"] = median(l.QueueMs)
	m["service.report_ms_p50"] = median(l.ReportMs)

	var calib, gc, baseWall, tracedWall []float64
	for _, it := range base.Iters {
		calib = append(calib, it.CalibMs)
		gc = append(gc, float64(it.GCCycles))
		baseWall = append(baseWall, it.WallS)
	}
	for _, it := range traced.Iters {
		tracedWall = append(tracedWall, it.WallS)
	}
	m["calib.loop_ms"] = median(calib)
	m["request.warm_ms_p50"] = median(base.WarmMs)
	m["runtime.gc_cycles"] = median(gc)
	m["trace.overhead_frac"] = ratio(median(tracedWall), median(baseWall)) - 1
	return m, errors.Join(errs...)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
