package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/store"
)

// streamEvent is the union of every event kind the stream carries. Seq is a
// pointer so journaled events (seq >= 0) are distinguishable from ephemeral
// state events (no seq field at all).
type streamEvent struct {
	Seq         *int   `json:"seq"`
	Event       string `json:"event"`
	Sweep       string `json:"sweep"`
	Jobs        int    `json:"jobs"`
	Header      string `json:"header"`
	Job         int    `json:"job"`
	Fingerprint string `json:"fingerprint"`
	Row         string `json:"row"`
	Rows        int    `json:"rows"`
	State       string `json:"state"`
	Error       string `json:"error"`
}

func parseEvents(t *testing.T, body string) []streamEvent {
	t.Helper()
	var evs []streamEvent
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable event line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// reassemble rebuilds the report CSV from a stream's journaled events,
// checking the journal's shape along the way: one sweep_started carrying the
// header, rows in submission order with content-address fingerprints, one
// sweep_done whose count matches.
func reassemble(t *testing.T, evs []streamEvent) string {
	t.Helper()
	var b strings.Builder
	rows, started, done := 0, false, false
	for _, ev := range evs {
		if ev.Seq == nil {
			continue // ephemeral state event
		}
		switch ev.Event {
		case "sweep_started":
			if started {
				t.Fatal("duplicate sweep_started")
			}
			started = true
			b.WriteString(ev.Header + "\n")
		case "row":
			if ev.Job != rows {
				t.Fatalf("row events out of submission order: got job %d, want %d", ev.Job, rows)
			}
			if len(ev.Fingerprint) != 64 {
				t.Fatalf("row %d fingerprint %q is not a sha256 hex address", ev.Job, ev.Fingerprint)
			}
			rows++
			b.WriteString(ev.Row + "\n")
		case "sweep_done":
			if ev.Rows != rows {
				t.Fatalf("sweep_done says %d rows, stream carried %d", ev.Rows, rows)
			}
			done = true
		default:
			t.Fatalf("unknown journaled event %q", ev.Event)
		}
	}
	if !started || !done {
		t.Fatalf("incomplete journal: started=%v done=%v", started, done)
	}
	return b.String()
}

// TestEventReplayMatchesReport is the determinism contract of DESIGN.md §10:
// replaying a finished sweep's event stream and reassembling header + rows
// yields the report CSV byte-for-byte, and reconnecting with Last-Event-ID
// (or ?after=) resumes exactly after the acknowledged sequence number.
func TestEventReplayMatchesReport(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	s := newService(t, Config{Parallelism: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	defer func() { cancel(); <-done }()

	sw, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, sw.ID, StateDone)

	get := func(path, lastEventID string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/sweeps/ffffffffffffffff/events", ""); code != http.StatusNotFound {
		t.Fatalf("events of unknown sweep = %d, want 404", code)
	}

	code, body := get("/sweeps/"+sw.ID+"/events", "")
	if code != http.StatusOK {
		t.Fatalf("events = %d:\n%s", code, body)
	}
	evs := parseEvents(t, body)
	last := evs[len(evs)-1]
	if last.Seq != nil || last.Event != "state" || last.State != StateDone {
		t.Fatalf("stream did not close with a terminal state event: %+v", last)
	}

	_, report := get("/sweeps/"+sw.ID+"/report", "")
	if got := reassemble(t, evs); !bytes.Equal([]byte(got), []byte(report)) {
		t.Fatalf("replayed stream != report:\n--- replay ---\n%s--- report ---\n%s", got, report)
	}

	// Resume after seq 0: the sweep_started must be skipped, the first
	// journaled event must be the job-0 row, and the row count is intact.
	wantRows := len(tinyReq().Policies)
	for _, via := range []struct{ name, query, header string }{
		{"?after=", "?after=0", ""},
		{"Last-Event-ID", "", "0"},
	} {
		_, body := get("/sweeps/"+sw.ID+"/events"+via.query, via.header)
		resumed := parseEvents(t, body)
		rows := 0
		for _, ev := range resumed {
			if ev.Seq == nil {
				continue
			}
			if ev.Event == "sweep_started" {
				t.Fatalf("%s resume replayed seq 0 again", via.name)
			}
			if ev.Event == "row" {
				if rows == 0 && ev.Job != 0 {
					t.Fatalf("%s resume starts at job %d, want 0", via.name, ev.Job)
				}
				rows++
			}
		}
		if rows != wantRows {
			t.Fatalf("%s resume carried %d rows, want %d", via.name, rows, wantRows)
		}
	}
}

// TestEventStreamFollowsLiveSweep subscribes before the Run loop starts and
// follows the sweep end to end: the rows arrive over the live feed (not a
// replay), and the handler closes the connection on its own once the sweep
// reaches a terminal state.
func TestEventStreamFollowsLiveSweep(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	s := newService(t, Config{Parallelism: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sw, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatal(err)
	}

	// Subscribe while the sweep is still queued; the handler must block
	// holding the connection open, pushing events as they happen.
	resp, err := http.Get(srv.URL + "/sweeps/" + sw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	defer func() { cancel(); <-done }()

	// The scanner ends only when the handler closes the stream after the
	// terminal state event — reaching this loop's end IS the liveness
	// assertion (a handler that never finishes would hang the test).
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}

	evs := parseEvents(t, strings.Join(lines, "\n"))
	rows, sawRunning := 0, false
	for _, ev := range evs {
		switch {
		case ev.Seq != nil && ev.Event == "row":
			rows++
		case ev.Seq == nil && ev.State == StateRunning:
			sawRunning = true
		}
	}
	if want := len(tinyReq().Policies); rows != want {
		t.Fatalf("live stream carried %d rows, want %d", rows, want)
	}
	if !sawRunning {
		t.Fatal("live stream never carried the ephemeral running state event")
	}
	if last := evs[len(evs)-1]; last.Seq != nil || last.State != StateDone {
		t.Fatalf("stream did not end with terminal state done: %+v", last)
	}
}

// TestMetricsConcurrentScrape hammers /metrics from several goroutines while
// a sweep runs — the race detector turns any unsynchronized collector into a
// failure — then checks the settled counters account for the whole sweep.
func TestMetricsConcurrentScrape(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	st, err := store.Open("mem:")
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, Config{Store: st, Parallelism: 2})
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.Handle("/", s.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Error(err)
			return ""
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/metrics = %d", resp.StatusCode)
		}
		return string(body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	sw, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					scrape()
				}
			}
		}()
	}
	waitState(t, s, sw.ID, StateDone)
	close(stop)
	wg.Wait()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	final := scrape()
	metric := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(final, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					t.Fatalf("unparseable metric line %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("metric %s missing from exposition:\n%s", name, final)
		return 0
	}
	if got := metric("trident_service_sweeps_admitted_total"); got != 1 {
		t.Errorf("admitted_total = %v, want 1", got)
	}
	jobs := len(tinyReq().Policies)
	delivered := metric(`trident_service_jobs_delivered{source="executed"}`) +
		metric(`trident_service_jobs_delivered{source="cache"}`) +
		metric(`trident_service_jobs_delivered{source="store"}`)
	if delivered != float64(jobs) {
		t.Errorf("delivered jobs across sources = %v, want %d", delivered, jobs)
	}
	// sweep_started + one row per job + sweep_done, plus >= 2 state events.
	if got := metric("trident_service_events_total"); got < float64(jobs+4) {
		t.Errorf("events_total = %v, want >= %d", got, jobs+4)
	}
	if got := metric(`trident_service_sweeps{state="done"}`); got != 1 {
		t.Errorf(`sweeps{state="done"} = %v, want 1`, got)
	}
}
