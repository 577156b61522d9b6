package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/stats"
	"repro/internal/units"
)

// Observer collects the Runs of one experiment and renders them into a
// Chrome/Perfetto trace-event JSON file and a per-batch time-series CSV.
//
// Runs are created by workers in any order (NewRun is read-only on the
// Observer) but registered by Flush in the runner's submission-order
// delivery loop, so the rendered files are deterministic for a given
// experiment regardless of worker count.
type Observer struct {
	SampleEvery int  // sampling period handed to each new Run
	Events      bool // event tracing handed to each new Run
	MaxEvents   int  // per-run event cap; 0 means DefaultMaxEvents

	tracePath  string
	seriesPath string

	mu   sync.Mutex
	runs []*Run
}

// NewObserver creates an observer that writes the trace-event JSON to
// tracePath and the time-series CSV to seriesPath when Closed. Either
// path may be empty to skip that output.
func NewObserver(tracePath, seriesPath string, sampleEvery int, events bool) *Observer {
	return &Observer{
		SampleEvery: sampleEvery,
		Events:      events,
		tracePath:   tracePath,
		seriesPath:  seriesPath,
	}
}

// NewRun returns a recorder configured for this observer, or nil when the
// observer itself is nil (the disabled case — nil Runs record nothing).
func (ob *Observer) NewRun(name string) *Run {
	if ob == nil {
		return nil
	}
	return &Run{
		Name:        name,
		SampleEvery: ob.SampleEvery,
		Events:      ob.Events,
		MaxEvents:   ob.MaxEvents,
	}
}

// Flush registers a completed run for rendering. Call order defines
// process order in the trace, so callers must flush in a deterministic
// order (the runner flushes in submission order). Nil and empty runs are
// skipped.
func (ob *Observer) Flush(r *Run) {
	if ob == nil || r.Empty() {
		return
	}
	ob.mu.Lock()
	ob.runs = append(ob.runs, r)
	ob.mu.Unlock()
}

// Close renders all flushed runs. When no run recorded anything, no files
// are created (an experiment served entirely from the memo cache traces
// nothing — only the first execution of a configuration is observable).
func (ob *Observer) Close() error {
	if ob == nil {
		return nil
	}
	ob.mu.Lock()
	runs := ob.runs
	ob.mu.Unlock()
	if len(runs) == 0 {
		return nil
	}
	if ob.tracePath != "" {
		if err := writeTrace(ob.tracePath, runs); err != nil {
			return err
		}
	}
	if ob.seriesPath != "" {
		if err := writeSeries(ob.seriesPath, runs); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one entry of the Chrome trace-event format ("JSON Object
// Format": {"traceEvents": [...]}). Perfetto and chrome://tracing both
// load it. Timestamps are microseconds; simulated ticks map 1:1 to µs.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func writeTrace(path string, runs []*Run) error {
	var evs []traceEvent
	for i, r := range runs {
		evs = append(evs, renderRun(r, i+1)...)
	}
	out := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{TraceEvents: evs}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("obs: marshal trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// renderRun lays one run out as trace events under its own pid. Phase
// spans go on tid 1, instantaneous events on tid 2, counter tracks on
// their own implicit tracks. Each stream is chronological by construction;
// the final stable sort by timestamp interleaves them without reordering
// equal-tick events within a stream, preserving B/E balance.
func renderRun(r *Run, pid int) []traceEvent {
	evs := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": r.Name},
	}, {
		Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
		Args: map[string]any{"name": "phases"},
	}, {
		Name: "thread_name", Ph: "M", Pid: pid, Tid: 2,
		Args: map[string]any{"name": "events"},
	}}
	var body []traceEvent
	for _, p := range r.phases {
		ph := "B"
		if !p.Begin {
			ph = "E"
		}
		body = append(body, traceEvent{
			Name: p.Name, Ph: ph, Ts: uint64(p.Tick), Pid: pid, Tid: 1,
		})
	}
	for _, e := range r.events {
		args := map[string]any{}
		switch e.Kind {
		case EvFault, EvPromote:
			args["size"] = e.Size.String()
		}
		if e.Bytes != 0 {
			args["bytes"] = e.Bytes
		}
		if e.DurNs != 0 {
			args["dur_ns"] = e.DurNs
		}
		if e.Kind == EvCompact {
			args["ok"] = e.OK
		}
		body = append(body, traceEvent{
			Name: e.Kind.String() + ":" + e.Name, Ph: "i",
			Ts: uint64(e.Tick), Pid: pid, Tid: 2, S: "t",
			Cat: e.Kind.String(), Args: args,
		})
	}
	for _, s := range r.samples {
		ts := uint64(s.Tick)
		body = append(body,
			counter(pid, ts, "mapped_bytes", map[string]any{
				"4k": s.Mapped[units.Size4K],
				"2m": s.Mapped[units.Size2M],
				"1g": s.Mapped[units.Size1G],
			}),
			counter(pid, ts, "walk_cycles_per_access", map[string]any{
				"cycles": s.WalkCycles,
			}),
			counter(pid, ts, "fmfi_2m", map[string]any{"fmfi": s.FMFI2M}),
			counter(pid, ts, "free_frames", map[string]any{"frames": s.FreeFrames}),
			counter(pid, ts, "zero_pool", map[string]any{"regions": s.ZeroPool}),
		)
	}
	// Stable: ties keep stream order, so an E at tick T stays after the
	// events its span contains and before any later B at the same tick.
	sort.SliceStable(body, func(i, j int) bool { return body[i].Ts < body[j].Ts })
	evs = append(evs, body...)
	if r.dropped > 0 {
		evs = append(evs, traceEvent{
			Name: "events_dropped", Ph: "M", Pid: pid, Tid: 2,
			Args: map[string]any{"dropped": r.dropped},
		})
	}
	return evs
}

func counter(pid int, ts uint64, name string, args map[string]any) traceEvent {
	return traceEvent{Name: name, Ph: "C", Ts: ts, Pid: pid, Tid: 0, Args: args}
}

// writeSeries renders every run's samples as one flat CSV, one row per
// (run, sample), using the same stats.Table renderer as the report CSVs.
func writeSeries(path string, runs []*Run) error {
	cols := []string{
		"run", "phase", "batch", "tick",
		"acc_4k", "acc_2m", "acc_1g",
		"l1_hit_rate", "l2_hits", "walks", "walk_mem",
		"walk_cycles_per_access", "stall_ns",
		"faults_4k", "faults_2m", "faults_1g",
		"mapped_4k", "mapped_2m", "mapped_1g",
		"free_frames", "fmfi_2m", "zero_pool",
		"kmaps", "kunmaps", "kmoves",
	}
	for o := 0; o <= units.TridentMaxOrder; o++ {
		cols = append(cols, fmt.Sprintf("free_o%d", o))
	}
	t := stats.NewTable("", cols...)
	for _, r := range runs {
		for _, s := range r.samples {
			row := []interface{}{
				r.Name, s.Phase, s.Batch, uint64(s.Tick),
				s.Accesses[units.Size4K], s.Accesses[units.Size2M], s.Accesses[units.Size1G],
				s.L1HitRate, s.L2Hits, s.Walks, s.WalkMem,
				s.WalkCycles, s.StallNs,
				s.Faults[units.Size4K], s.Faults[units.Size2M], s.Faults[units.Size1G],
				s.Mapped[units.Size4K], s.Mapped[units.Size2M], s.Mapped[units.Size1G],
				s.FreeFrames, s.FMFI2M, s.ZeroPool,
				s.KernelMaps, s.KernelUnmaps, s.KernelMoves,
			}
			for o := 0; o <= units.TridentMaxOrder; o++ {
				row = append(row, s.FreeOrders[o])
			}
			t.AddRow(row...)
		}
	}
	if t.NumRows() == 0 {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(t.CSV()), 0o644)
}
