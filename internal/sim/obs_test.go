package sim

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// rendered is what an Observer writes for one recorded run: the trace JSON
// and series CSV as bytes, the trace's events, and the series rows keyed
// by column.
type rendered struct {
	trace, series []byte
	events        []renderedEvent
	rows          []map[string]string
}

// renderedEvent is the part of a trace event the tests read.
type renderedEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Tid  int    `json:"tid"`
}

// render writes r through an Observer, as a traced experiment does, and
// reads both files back.
func render(t *testing.T, r *obs.Run) rendered {
	t.Helper()
	dir := t.TempDir()
	tracePath, seriesPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "series.csv")
	ob := obs.NewObserver(tracePath, seriesPath, 0, false)
	ob.Flush(r)
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	var out rendered
	var err error
	if out.trace, err = os.ReadFile(tracePath); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []renderedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.trace, &doc); err != nil {
		t.Fatal(err)
	}
	out.events = doc.TraceEvents
	// A run with no samples writes no series file.
	if out.series, err = os.ReadFile(seriesPath); os.IsNotExist(err) {
		return out
	} else if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(out.series)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, col := range recs[0] {
			row[col] = rec[i]
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// sumCols parses and adds the named integer columns of a series row.
func sumCols(t *testing.T, row map[string]string, cols ...string) (n uint64) {
	t.Helper()
	for _, c := range cols {
		v, err := strconv.ParseUint(row[c], 10, 64)
		if err != nil {
			t.Fatalf("series column %s: %v", c, err)
		}
		n += v
	}
	return n
}

// TestObsPureObserver is the tentpole invariant: full tracing + per-batch
// sampling must not change a single measured number. The recorder observes
// the run; it never participates in it.
func TestObsPureObserver(t *testing.T) {
	cfg := testConfig("GUPS", PolicyTrident)
	cfg.Accesses = 60_000
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = &obs.Run{Name: "traced", SampleEvery: 1, Events: true}
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the result:\n%+v\nvs\n%+v", plain, traced)
	}
}

// TestObsDeterministicTimestamps: two identical traced runs must record
// identical phase marks, events and samples — the event clock is simulated
// time, so host scheduling cannot perturb it.
func TestObsDeterministicTimestamps(t *testing.T) {
	trace := func() *obs.Run {
		cfg := testConfig("Redis", PolicyTrident)
		cfg.Accesses = 60_000
		cfg.Obs = &obs.Run{Name: "r", SampleEvery: 2, Events: true}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Obs
	}
	a, b := render(t, trace()), render(t, trace())
	if !bytes.Equal(a.trace, b.trace) {
		t.Error("phase marks, events or drop counts differ between identical runs")
	}
	if !bytes.Equal(a.series, b.series) {
		t.Error("samples differ between identical runs")
	}
}

// TestObsRunRecordsEverything drives one fully traced Trident run and
// checks each observable stream actually populated: balanced phase spans
// with non-decreasing ticks, faults for every mapped page size, promotions,
// and per-batch samples whose gauges are live.
func TestObsRunRecordsEverything(t *testing.T) {
	cfg := testConfig("GUPS", PolicyTrident)
	o := &obs.Run{Name: "GUPS/trident", SampleEvery: 1, Events: true}
	cfg.Obs = o
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, o)

	// Phases: balanced, nested, non-decreasing ticks, the canonical order.
	var stack []string
	var lastTick uint64
	seen := map[string]bool{}
	events := 0
	for _, p := range out.events {
		if p.Ph == "i" {
			events++
		}
		if p.Tid != 1 || (p.Ph != "B" && p.Ph != "E") {
			continue
		}
		if p.Ts < lastTick {
			t.Fatalf("phase %q tick %d < previous %d", p.Name, p.Ts, lastTick)
		}
		lastTick = p.Ts
		if p.Ph == "B" {
			stack = append(stack, p.Name)
			seen[p.Name] = true
		} else {
			if len(stack) == 0 || stack[len(stack)-1] != p.Name {
				t.Fatalf("unbalanced phase end %q (stack %v)", p.Name, stack)
			}
			stack = stack[:len(stack)-1]
		}
	}
	if len(stack) > 0 {
		t.Fatalf("unclosed phases: %v", stack)
	}
	// measure-early appears only under a khugepaged budget; this config has
	// none, so the canonical phases are the other four.
	for _, want := range []string{"build", "populate", "daemons", "measure"} {
		if !seen[want] {
			t.Errorf("phase %q never recorded", want)
		}
	}

	if events == 0 {
		t.Fatal("no events recorded")
	}
	if len(out.rows) == 0 {
		t.Fatal("no samples recorded")
	}

	var accTotal uint64
	for _, row := range out.rows {
		accTotal += sumCols(t, row, "acc_4k", "acc_2m", "acc_1g")
	}
	if accTotal == 0 {
		t.Error("samples carry no translation activity")
	}
	final := out.rows[len(out.rows)-1]
	if final["phase"] != "measure" {
		t.Errorf("final sample phase = %q, want measure", final["phase"])
	}
	if sumCols(t, final, "free_frames") == 0 {
		t.Error("final sample has zero free frames on an 8GB machine")
	}
	// The run mapped memory (res says so); the gauge must agree it's nonzero.
	var mappedRes uint64
	for _, b := range res.MappedFinal {
		mappedRes += b
	}
	if mappedRes > 0 && sumCols(t, final, "mapped_4k", "mapped_2m", "mapped_1g") == 0 {
		t.Error("result shows mapped memory but the sampler gauge is zero")
	}
}

// TestObsConfigIgnoredByRun: the Obs field must never leak into the
// simulation's inputs — attaching a recorder to a *different* config value
// and re-running still yields equal results (cf. the runner's cache-key
// exclusion, pinned in internal/runner tests).
func TestObsSampleCadence(t *testing.T) {
	cfg := testConfig("GUPS", PolicyTrident)
	cfg.Accesses = 60_000
	every1 := &obs.Run{Name: "r", SampleEvery: 1}
	cfg.Obs = every1
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	every3 := &obs.Run{Name: "r", SampleEvery: 3}
	cfg.Obs = every3
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	n1, n3 := len(render(t, every1).rows), len(render(t, every3).rows)
	if n1 == 0 || n3 == 0 {
		t.Fatalf("sampling recorded nothing (every1=%d every3=%d)", n1, n3)
	}
	if n3 >= n1 {
		t.Errorf("SampleEvery=3 recorded %d samples, >= SampleEvery=1's %d", n3, n1)
	}
}
