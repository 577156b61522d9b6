package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/units"
)

// TestNilRunSafe: a nil *Run is the disabled recorder the simulator threads
// through its hot loops; every method must be a no-op, never a panic.
func TestNilRunSafe(t *testing.T) {
	var o *Run
	if o.Active() || o.EventsOn() {
		t.Error("nil run reports active")
	}
	o.Advance(10)
	if o.BatchDone(2000) {
		t.Error("nil run wants a sample")
	}
	o.Phase("measure", true)
	o.Phase("measure", false)
	o.Emit(EvFault, "4KB", units.Size4K, 0, 0, true)
	o.AddSample(Sample{})
	if !o.Empty() {
		t.Error("nil run recorded something")
	}

	var ob *Observer
	if r := ob.NewRun("x"); r != nil {
		t.Error("nil observer returned a run")
	}
	ob.Flush(nil)
	if err := ob.Close(); err != nil {
		t.Errorf("nil observer Close: %v", err)
	}
}

// TestRunClockAndSampling: BatchDone advances the clock by the batch size
// and fires on the SampleEvery cadence; Advance and Emit stamp the current
// tick.
func TestRunClockAndSampling(t *testing.T) {
	o := &Run{Name: "r", SampleEvery: 3, Events: true}
	fires := 0
	for b := 1; b <= 9; b++ {
		if o.BatchDone(2000) {
			fires++
			if b%3 != 0 {
				t.Errorf("sample fired at batch %d with SampleEvery=3", b)
			}
			o.AddSample(Sample{Phase: "measure"})
		}
	}
	if fires != 3 {
		t.Errorf("fires = %d, want 3", fires)
	}
	if o.tick != Tick(9*2000) {
		t.Errorf("clock = %d, want %d", o.tick, 9*2000)
	}
	s := o.samples
	if len(s) != 3 || s[0].Batch != 3 || s[2].Batch != 9 || s[1].Tick != Tick(6*2000) {
		t.Errorf("samples mis-stamped: %+v", s)
	}

	o.Advance(7)
	o.Emit(EvPromote, "2MB", units.Size2M, 1<<21, 0, true)
	evs := o.events
	if len(evs) != 1 || evs[0].Tick != Tick(9*2000+7) {
		t.Errorf("event tick = %v, want %d", evs, 9*2000+7)
	}
}

// TestRunEventCap: past MaxEvents the recorder counts drops instead of
// growing, so a fault-storm run stays bounded and the trace says what was
// lost.
func TestRunEventCap(t *testing.T) {
	o := &Run{Name: "r", Events: true, MaxEvents: 5}
	for i := 0; i < 12; i++ {
		o.Emit(EvFault, "4KB", units.Size4K, 0, 0, true)
	}
	if len(o.events) != 5 {
		t.Errorf("retained %d events, want 5", len(o.events))
	}
	if o.dropped != 7 {
		t.Errorf("dropped = %d, want 7", o.dropped)
	}
}

// TestRunEmpty: phase marks alone don't make a run worth rendering (every
// run records phases for wall-clock timing); any event or sample does.
func TestRunEmpty(t *testing.T) {
	inactive := &Run{Name: "r"}
	inactive.Phase("build", true)
	inactive.Phase("build", false)
	if !inactive.Empty() {
		t.Error("inactive run with only phases should be empty")
	}
	active := &Run{Name: "r", Events: true}
	active.Phase("build", true)
	active.Phase("build", false)
	if active.Empty() {
		t.Error("active run with phase marks should render")
	}
}

// traceDoc mirrors the on-disk trace for validation.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   uint64         `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestObserverGolden writes a two-run trace + series through the real file
// path and validates the golden properties: parseable JSON, at least one
// event, non-decreasing timestamps per (pid, tid), balanced B/E spans, and
// a series CSV with one row per sample.
func TestObserverGolden(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	seriesPath := filepath.Join(dir, "s.csv")
	ob := NewObserver(tracePath, seriesPath, 1, true)

	for _, name := range []string{"GUPS/trident", "Redis/thp"} {
		r := ob.NewRun(name)
		r.Phase("populate", true)
		r.Emit(EvFault, "2MB", units.Size2M, 1<<21, 2400, true)
		r.Advance(1)
		r.Emit(EvFault, "4KB", units.Size4K, 1<<12, 900, true)
		r.Phase("populate", false)
		r.Phase("measure", true)
		if r.BatchDone(2000) {
			r.AddSample(Sample{Phase: "measure", FreeFrames: 123, FMFI2M: 0.5})
		}
		r.Emit(EvCompact, "compact-smart", units.Size2M, 1<<20, 0, true)
		r.Phase("measure", false)
		ob.Flush(r)
	}
	if len(ob.runs) != 2 {
		t.Fatalf("%d runs flushed, want 2", len(ob.runs))
	}
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	type stream struct{ pid, tid int }
	last := map[stream]uint64{}
	open := map[stream][]string{}
	pids := map[int]bool{}
	for i, e := range doc.TraceEvents {
		pids[e.Pid] = true
		if e.Ph == "M" {
			continue
		}
		s := stream{e.Pid, e.Tid}
		if prev, seen := last[s]; seen && e.Ts < prev {
			t.Fatalf("event %d: ts %d < %d on %+v", i, e.Ts, prev, s)
		}
		last[s] = e.Ts
		switch e.Ph {
		case "B":
			open[s] = append(open[s], e.Name)
		case "E":
			st := open[s]
			if len(st) == 0 || st[len(st)-1] != e.Name {
				t.Fatalf("event %d: unbalanced E %q (stack %v)", i, e.Name, st)
			}
			open[s] = st[:len(st)-1]
		}
	}
	for s, st := range open {
		if len(st) > 0 {
			t.Fatalf("stream %+v: unclosed spans %v", s, st)
		}
	}
	if len(pids) != 2 {
		t.Errorf("trace has %d pids, want one per run (2)", len(pids))
	}

	series, err := os.ReadFile(seriesPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(series)), "\n")
	if len(lines) != 1+2 { // header + one sample per run
		t.Fatalf("series has %d lines, want 3:\n%s", len(lines), series)
	}
	if !strings.HasPrefix(lines[0], "run,phase,batch,tick,") {
		t.Errorf("series header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "GUPS/trident,measure,1,") {
		t.Errorf("series row = %q", lines[1])
	}
}

// TestObserverNoOutputWhenEmpty: an experiment served entirely from the memo
// cache flushes only empty runs and must create no files.
func TestObserverNoOutputWhenEmpty(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.json")
	ob := NewObserver(tracePath, filepath.Join(dir, "s.csv"), 1, true)
	ob.Flush(ob.NewRun("cached")) // recorded nothing
	ob.Flush(nil)
	if err := ob.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("trace file created for empty observer (err=%v)", err)
	}
}

// TestRegistryExposition: counters, gauges, funcs and summaries render in
// the Prometheus text format, sorted by name, with quantile series.
func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("test_total", "a counter", func() float64 { return 42 })
	reg.GaugeFunc("b_gauge", "a gauge", func() float64 { return 5 })
	reg.GaugeFunc("a_func", "computed", func() float64 { return 2.5 })
	s := reg.Summary("dur_ms", "latencies", 0.5, 0.99)
	for i := 1; i <= 100; i++ {
		s.Observe(float64(i))
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_total counter", "test_total 42",
		"# TYPE b_gauge gauge", "b_gauge 5",
		"a_func 2.5",
		"# TYPE dur_ms summary",
		`dur_ms{quantile="0.5"} 50`,
		`dur_ms{quantile="0.99"} 99`,
		"dur_ms_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Sorted by name: a_func before b_gauge before dur_ms before test_total.
	if !(strings.Index(out, "a_func") < strings.Index(out, "b_gauge") &&
		strings.Index(out, "b_gauge") < strings.Index(out, "dur_ms") &&
		strings.Index(out, "dur_ms") < strings.Index(out, "test_total")) {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

// TestRegistryRejectsBadNames: invalid or duplicate names are programmer
// errors and panic at registration.
func TestRegistryRejectsBadNames(t *testing.T) {
	reg := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	zero := func() float64 { return 0 }
	mustPanic("invalid", func() { reg.CounterFunc("1bad", "", zero) })
	mustPanic("empty", func() { reg.GaugeFunc("", "", zero) })
	reg.CounterFunc("dup", "", zero)
	mustPanic("duplicate", func() { reg.CounterFunc("dup", "", zero) })
}
