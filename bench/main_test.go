package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianQuantileP90(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quantile(xs, i+1, 4); !near(got, want) {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	if got := iqrFrac(xs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrFrac = %v", got)
	}
	if _, err := p90(make([]float64, minP90Samples-1)); err == nil {
		t.Error("p90 accepted fewer than 100 samples")
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	// statistics.quantiles(range(1, 101), n=100)[89] == 90.9
	if got, err := p90(hundred); err != nil || !near(got, 90.9) {
		t.Errorf("p90 = %v, %v; want 90.9", got, err)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/tlb.(*TLB).lookupHitSlow (inline)":    "tlb",
		"repro/internal/sim.(*runner).measure.func1":          "sim",
		"repro/internal/runner.Execute.func1.1":               "runner",
		"repro/internal/stream.Pack[go.shape.int]":            "workload",
		"repro/internal/buddy.f[repro/internal/phys.Frame]":   "buddy",
		"repro/internal/kernel.(*Kernel).UnmapFree-fm":        "kernel",
		"repro/internal/zerofill.(*Daemon).Refill":            "promote",
		"type:.eq.repro/internal/runner.cacheKey":             "runner",
		"repro/internal/units.PageSize.Bytes (inline)":        "other",
		"runtime.mallocgc":                                    "runtime",
		"runtime/pprof.Do":                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":        "runtime",
		"gcWriteBarrier":                                      "runtime",
		"sync.(*Mutex).Lock":                                  "other",
		"main.calibLoop":                                      "other",
		"[unknown]":                                           "other",
		"repro/internal/service.(*Service).handleSubmit":      "service",
		"repro/internal/store.(*Store).Get":                   "store",
		"repro/internal/virt.(*VM).AttachPvExchange.func1":    "virt",
		"repro/internal/fragment.(*Fragmenter).ReclaimRandom": "fragment",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := `File: bench
Type: cpu
Duration: 2.51s, Total samples = 4620ms (183.94%)
Showing nodes accounting for 4620ms, 100% of 4620ms total
      flat  flat%   sum%        cum   cum%
     310ms  6.71%  6.71%      620ms 13.42%  repro/internal/pagetable.(*Table).Translate
     300ms  6.49% 13.20%      300ms  6.49%  repro/internal/tlb.(*TLB).lookupHitSlow (inline)
     250ms  5.41% 18.61%      250ms  5.41%  runtime.memclrNoHeapPointers
      40ms  0.87% 19.48%       40ms  0.87%  repro/internal/tlb.tag (inline)
         0     0%   100%     4600ms 99.57%  runtime/pprof.Do
`
	got, err := parseTop(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pagetable": 310, "tlb": 340, "runtime": 250}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := parseTop(strings.NewReader("no table here\n")); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}

func TestSumSeries(t *testing.T) {
	csv := `run,phase,acc_4k,acc_2m,acc_1g,l2_hits,walks,walk_mem,faults_4k,faults_2m,faults_1g,kmaps,kunmaps,kmoves
GUPS/THP,populate,0,0,0,0,0,0,100,2,0,102,0,0
GUPS/THP,measure,600,300,100,200,50,120,0,0,1,1,3,4
GUPS/THP,measure,400,0,0,100,50,80,5,0,0,5,0,0
`
	got, err := sumSeries(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"tlb.accesses": 1400, "tlb.l2_hits": 300, "pagetable.walks": 100, "pagetable.walk_mem": 200,
		"fault.faults_4k": 105, "fault.faults_2m": 2, "fault.faults_1g": 1,
		"kernel.maps": 108, "kernel.unmaps": 3, "kernel.moves": 4,
		"tlb.l1_hit_rate": 1 - 400.0/1400,
	}
	if !sameCounts(got, want) {
		t.Errorf("sumSeries = %v, want %v", got, want)
	}
	if _, err := sumSeries(strings.NewReader("run,acc_4k\nx,1\n")); err == nil {
		t.Error("sumSeries accepted a series without the counted columns")
	}
}

func TestAccount(t *testing.T) {
	a := &childResult{Attempted: 10, Failed: 1, Problems: []string{"figure9: 1 jobs failed"},
		Outputs: map[string]string{"grid-001": "aa", "grid-002": "bb"}}
	b := &childResult{Attempted: 10, Outputs: map[string]string{"grid-001": "aa", "grid-002": "cc"}}
	attempted, failed, problems := account([]*childResult{a, b}, map[string]string{"grid-001": "zz"})
	if attempted != 20 {
		t.Errorf("attempted = %d, want 20", attempted)
	}
	// a's own failure, grid-002 differing between processes, and grid-001
	// differing from golden in both processes.
	if failed != 4 || len(problems) != 4 {
		t.Errorf("failed = %d with problems %q, want 4", failed, problems)
	}
	if _, failed, problems := account([]*childResult{b}, map[string]string{"grid-001": "aa"}); failed != 0 || len(problems) != 0 {
		t.Errorf("clean run: failed = %d, problems %q", failed, problems)
	}
}

// TestChromeEventsNest checks that concurrent and nested spans come out as
// B/E pairs that close in stack order, with time running forward, on every
// lane.
func TestChromeEventsNest(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "iteration", start: ms(0), end: ms(100)},
		{name: "sweep a", parent: 1, start: ms(1), end: ms(60)},
		{name: "sweep b", parent: 1, start: ms(2), end: ms(90)},
		{name: "store.put", parent: 2, start: ms(10), end: ms(20)},
		{name: "store.put", parent: 3, start: ms(15), end: ms(25)},
		{name: "mark", parent: 2, start: ms(60), end: ms(60)},
		{name: "sweep a", parent: 1, start: ms(60), end: ms(99)},
	}
	type lane struct {
		open []string
		last int64
	}
	lanes := map[int]*lane{}
	for _, e := range chromeEvents(spans) {
		if e.Ph == "M" {
			continue
		}
		l := lanes[e.Tid]
		if l == nil {
			l = &lane{}
			lanes[e.Tid] = l
		}
		if e.Ts < l.last {
			t.Fatalf("lane %d: time runs backward at %+v", e.Tid, e)
		}
		l.last = e.Ts
		switch e.Ph {
		case "B":
			l.open = append(l.open, e.Name)
		case "E":
			if len(l.open) == 0 || l.open[len(l.open)-1] != e.Name {
				t.Fatalf("lane %d: E %q does not close the innermost span %v", e.Tid, e.Name, l.open)
			}
			l.open = l.open[:len(l.open)-1]
		}
	}
	for tid, l := range lanes {
		if len(l.open) > 0 {
			t.Errorf("lane %d: spans left open: %v", tid, l.open)
		}
	}
	if len(lanes) < 2 {
		t.Errorf("overlapping sweeps share one lane")
	}
}

// TestSpecMatchesMetrics pins BENCHMARK.json to the code: every metric it
// names is produced, and nothing else.
func TestSpecMatchesMetrics(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	r := &childResult{Workers: 2, Outputs: map[string]string{}, Layers: &layerData{Accesses: 1}}
	for i := 0; i < minP90Samples; i++ {
		r.Iters = append(r.Iters, sample{WallS: 1, CPUS: 1, AllocMB: 1, CalibMs: 1})
		r.ColdMs = append(r.ColdMs, 1)
		r.WarmMs = append(r.WarmMs, 1)
		r.JobMs = append(r.JobMs, 1)
	}
	e2e, _ := endToEnd([]*childResult{r})
	layers, err := perLayer(r, r, map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  map[string]float64
		want []metricSpec
	}{{e2e, sp.EndToEnd}, {layers, sp.PerLayer}} {
		var got, want []string
		for k := range c.got {
			got = append(got, k)
		}
		for _, m := range c.want {
			want = append(want, m.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("metrics produced:\n  %v\nBENCHMARK.json names:\n  %v", got, want)
		}
	}
}

// TestSmoke runs one timed iteration of fig9-native untraced and one block
// of sweeps (plus each one's warm-up) traced, and checks them against the
// golden outputs of seed 1.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, c := range []struct {
		workload string
		traced   bool
	}{{"fig9-native", false}, {"sweep-service", true}} {
		ws, err := selectWorkloads(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		r, err := runProcess(ws[0], 1, 0, out, c.traced, time.Now(), 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		golden, err := loadGolden(filepath.Join("..", goldenPath(c.workload, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if len(golden) == 0 {
			t.Fatalf("%s: no golden outputs for seed 1", c.workload)
		}
		attempted, failed, problems := account([]*childResult{r}, golden)
		if attempted == 0 || failed != 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", c.workload, attempted, failed, problems)
		}
		if len(r.Iters) != 1 || len(r.ColdMs) == 0 || len(r.WarmMs) == 0 || len(r.JobMs) == 0 {
			t.Errorf("%s: incomplete samples: %d iterations, %d cold, %d warm, %d jobs",
				c.workload, len(r.Iters), len(r.ColdMs), len(r.WarmMs), len(r.JobMs))
		}
		if !c.traced {
			continue
		}
		if l := r.Layers; len(l.PutMs) == 0 || len(l.GetMs) == 0 || len(l.QueueMs) == 0 || l.StoreHits == 0 {
			t.Errorf("%s: traced layers missing: %+v", c.workload, l)
		}
		data, err := os.ReadFile(filepath.Join(out, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tr struct{ TraceEvents []chromeEvent }
		if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
			t.Errorf("%s: trace.json unreadable or empty: %v", c.workload, err)
		}
	}
}
