package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps a workload process's spans in memory and writes them out
// as a Chrome trace when the process ends. Spans are measured here, around
// the benchmark's calls into each layer; the program itself is not
// instrumented. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type span struct {
	name       string
	parent     int // id of the enclosing span, 0 for none
	start, end time.Duration
	args       map[string]any
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span now and returns its id (0 when t is nil).
func (t *tracer) begin(name string, parent int, args map[string]any) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1, args: args})
	return len(t.spans)
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: parent,
		start: start.Sub(t.origin), end: end.Sub(t.origin), args: args})
	t.mu.Unlock()
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace JSON: B/E pairs on one tid
// per concurrent lane, so that each lane's spans nest in stack order.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{chromeEvents(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// chromeEvents lays spans out on lanes. Taken in start order (longer
// first on ties), a span goes on the first lane whose innermost open span
// contains it, or that has nothing open. Spans that ended by the new
// span's start are closed first — safe on every lane, since no later span
// starts earlier — so each lane closes its spans in stack order, which is
// what B/E events need.
func chromeEvents(spans []span) []chromeEvent {
	ids := make([]int, len(spans))
	for i := range spans {
		ids[i] = i
		if spans[i].end < spans[i].start {
			spans[i].end = spans[i].start // never ended: a zero-length mark
		}
	}
	sort.SliceStable(ids, func(a, b int) bool {
		sa, sb := spans[ids[a]], spans[ids[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	us := func(d time.Duration) int64 { return d.Microseconds() }
	var lanes [][]int // open span ids per lane, innermost last
	var events []chromeEvent
	closeUntil := func(lane int, at time.Duration) {
		open := lanes[lane]
		for len(open) > 0 && spans[open[len(open)-1]].end <= at {
			s := spans[open[len(open)-1]]
			events = append(events, chromeEvent{Name: s.name, Ph: "E", Ts: us(s.end), Pid: 1, Tid: lane + 1})
			open = open[:len(open)-1]
		}
		lanes[lane] = open
	}
	for _, id := range ids {
		s := spans[id]
		lane := -1
		for l := range lanes {
			closeUntil(l, s.start)
			if open := lanes[l]; len(open) == 0 || spans[open[len(open)-1]].end >= s.end {
				lane = l
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		args := map[string]any{"id": id + 1, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "B", Ts: us(s.start), Pid: 1, Tid: lane + 1, Args: args})
		lanes[lane] = append(lanes[lane], id)
	}
	for l := range lanes {
		closeUntil(l, 1<<62)
	}
	meta := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bench"}}}
	for l := range lanes {
		meta = append(meta, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: l + 1,
			Args: map[string]any{"name": "lane"}})
	}
	return append(meta, events...)
}
