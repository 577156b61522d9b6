package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// maxRequestBytes bounds a sweep submission body; a grid description is a
// few hundred bytes, so 1 MiB is generous.
const maxRequestBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST /sweeps              submit (202 queued / 200 known / 429 + Retry-After / 503 draining)
//	GET  /sweeps              list all sweeps
//	GET  /sweeps/{id}         one sweep's status
//	GET  /sweeps/{id}/report  the finished CSV report
//	GET  /sweeps/{id}/events  NDJSON event stream (live + replay; see handleEvents)
//	GET  /healthz             process liveness (always 200 while serving)
//	GET  /readyz              admission readiness (503 once draining)
//
// Every handler honors the request context: a client that disconnects
// mid-response stops the work. The whole API is wrapped in the request
// log middleware: one structured line per request, correlated by sweep_id
// when the path names one. Mount alongside the observability endpoints on
// the command's mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleGet)
	mux.HandleFunc("GET /sweeps/{id}/report", s.handleReport)
	mux.HandleFunc("GET /sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.requestLog(mux)
}

// statusWriter records the response code for the request log. It exposes
// the wrapped writer via Unwrap, so http.ResponseController (flushes and
// per-write deadlines on the event stream) reaches the real connection.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// pathSweepID extracts the sweep id from an API path ("/sweeps/{id}" and
// below), or "". The middleware runs before mux dispatch, so it cannot use
// r.PathValue.
func pathSweepID(p string) string {
	parts := strings.Split(strings.Trim(p, "/"), "/")
	if len(parts) >= 2 && parts[0] == "sweeps" {
		return parts[1]
	}
	return ""
}

// requestLog is the service's request middleware: every request gets one
// structured completion line (method, path, status, duration), and a
// request whose path names a sweep carries that sweep_id as a correlation
// attribute on its context — any InfoContext call downstream of the
// handler picks it up through the obs.Correlated handler.
func (s *Service) requestLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r2 := r
		id := pathSweepID(r.URL.Path)
		if id != "" {
			r2 = r.WithContext(obs.WithCorr(r.Context(), slog.String("sweep_id", id)))
		}
		next.ServeHTTP(sw, r2)
		s.log.DebugContext(r2.Context(), "http request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "duration_ms", time.Since(start).Milliseconds())
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hung up; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding sweep request: %w", err))
		return
	}
	if r.Context().Err() != nil {
		return // client gone before admission; don't enqueue on its behalf
	}
	sw, err := s.Submit(req)
	switch {
	case err == nil:
		code := http.StatusAccepted
		if sw.State != StateQueued {
			code = http.StatusOK // idempotent resubmission of a known sweep
		}
		writeJSON(w, code, sw)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClientBusy):
		// Backpressure: tell the client when the queue plausibly has room.
		w.Header().Set("Retry-After", strconv.Itoa(max(1, s.QueueDepth())))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return
	}
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return
	}
	sw, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown sweep"))
		return
	}
	writeJSON(w, http.StatusOK, sw)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Context().Err() != nil {
		return
	}
	id := r.PathValue("id")
	sw, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown sweep"))
		return
	}
	if sw.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("sweep is %s, report not ready", sw.State))
		return
	}
	data, err := os.ReadFile(s.ReportPath(id))
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("reading report: %w", err))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(data) //nolint:errcheck // client hangup
}

// streamWriteDeadline bounds each event-stream write. The stream as a
// whole is unbounded (a follower can watch a long sweep end to end), so
// the handler extends the connection's write deadline per write via
// http.ResponseController instead of living under the server's global
// WriteTimeout.
const streamWriteDeadline = 30 * time.Second

// handleEvents streams a sweep's events as NDJSON, one JSON object per
// line. The response replays the sweep's journal (sequence-numbered,
// wall-clock-free events: sweep_started, row, sweep_done), then follows
// the live feed — rows are pushed in submission order as jobs finish,
// interleaved with ephemeral state events — until the sweep reaches a
// terminal state, when the stream ends with a synthetic state event. A
// client that reconnects resumes with `Last-Event-ID: <seq>` (or
// ?after=<seq>): journaled events with seq <= that are skipped. Replaying
// a finished sweep yields exactly the rows of its final report
// (DESIGN.md §10).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	swp, ok := s.sweeps[id]
	var ev *eventLog
	if ok {
		ev = swp.events
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("unknown sweep"))
		return
	}
	after := -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			after = n
		}
	}

	s.streamSubs.Add(1)
	defer s.streamSubs.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	rc := http.NewResponseController(w)
	// Commit the headers before the first event: a subscriber to a queued
	// sweep must see the stream open immediately, not block in its client
	// until the first job lands.
	w.WriteHeader(http.StatusOK)
	rc.Flush() //nolint:errcheck
	write := func(lines []string) bool {
		if len(lines) == 0 {
			return true
		}
		rc.SetWriteDeadline(time.Now().Add(streamWriteDeadline)) //nolint:errcheck
		for _, ln := range lines {
			if _, err := io.WriteString(w, ln+"\n"); err != nil {
				return false
			}
		}
		rc.Flush() //nolint:errcheck
		return true
	}

	lines, cursor, finished, notify := ev.replay(after)
	if !write(lines) {
		return
	}
	for !finished {
		select {
		case <-r.Context().Done():
			return
		case <-notify:
		}
		lines, cursor, finished, notify = ev.next(cursor)
		if !write(lines) {
			return
		}
	}
	// Drain whatever landed between the last read and finish, then close
	// with the terminal state so followers know why the stream ended.
	lines, _, _, _ = ev.next(cursor)
	if !write(lines) {
		return
	}
	if snap, ok := s.Get(id); ok {
		write([]string{terminalStateLine(snap)})
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleReadyz flips to 503 once the service is draining, so a fronting
// balancer stops routing submissions while in-flight work finishes.
func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// RegisterMetrics exposes the service's health on an obs registry:
// admission counters, queue and in-flight gauges, per-state sweep gauges,
// job-latency and backoff summaries, event-stream counters, and the
// result store's tier counters. Monotonic values are counters (they
// survive rate() queries); point-in-time values are gauges.
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	counter := func(v *atomic.Uint64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	reg.GaugeFunc("trident_service_queue_depth", "sweeps waiting to run", func() float64 {
		return float64(s.QueueDepth())
	})
	reg.GaugeFunc("trident_service_draining", "1 once admission is closed for shutdown", func() float64 {
		if s.Draining() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("trident_service_jobs_inflight", "jobs of the running sweep not yet delivered", func() float64 {
		return float64(s.inFlight.Load())
	})
	reg.GaugeFunc("trident_service_stream_subscribers", "live /sweeps/{id}/events subscribers", func() float64 {
		return float64(s.streamSubs.Load())
	})
	reg.GaugeSeriesFunc("trident_service_sweeps", "sweeps known to the service, by state", func(emit func(string, float64)) {
		counts := map[string]int{}
		s.mu.Lock()
		for _, sw := range s.sweeps {
			counts[sw.state]++
		}
		s.mu.Unlock()
		for _, st := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateInterrupted} {
			emit(fmt.Sprintf("trident_service_sweeps{state=%q}", st), float64(counts[st]))
		}
	})
	reg.CounterFunc("trident_service_sweeps_admitted_total", "sweep submissions admitted", counter(&s.admitted))
	reg.CounterFunc("trident_service_sweeps_rejected_total", "sweep submissions rejected by admission control", counter(&s.rejected))
	reg.CounterFunc("trident_service_sweep_retries_total", "sweep re-executions after transient failures", counter(&s.retried))
	reg.CounterFunc("trident_service_sweeps_interrupted_total", "sweeps interrupted by drain (resumable)", counter(&s.interrupted))
	reg.CounterFunc("trident_service_durability_notes_total", "corrupt-entry and lost-write incidents absorbed", counter(&s.notes))
	reg.CounterFunc("trident_service_events_total", "sweep events emitted (journal + stream)", counter(&s.events))
	reg.GaugeSeriesFunc("trident_service_jobs_delivered", "jobs delivered in submission order, by result source", func(emit func(string, float64)) {
		for _, src := range []struct {
			name string
			v    *atomic.Uint64
		}{
			{"executed", &s.jobsExecuted}, {"cache", &s.jobsCache}, {"store", &s.jobsStore},
			{"skipped", &s.jobsSkipped}, {"failed", &s.jobsFailed},
		} {
			emit(fmt.Sprintf("trident_service_jobs_delivered{source=%q}", src.name), float64(src.v.Load()))
		}
	})
	s.jobWallMs.Store(reg.Summary("trident_service_job_wall_ms",
		"wall time per delivered simulation job (ms)", 0.5, 0.9, 0.99))
	s.backoffMs.Store(reg.Summary("trident_service_backoff_ms",
		"retry backoff delays chosen by the pinned schedule (ms)", 0.5, 0.99))
	storeCounter := func(field func(store.Stats) uint64) func() float64 {
		return func() float64 { return float64(field(s.cfg.Store.Stats())) }
	}
	reg.CounterFunc("trident_store_hits_total", "result-store read hits",
		storeCounter(func(v store.Stats) uint64 { return v.Hits }))
	reg.CounterFunc("trident_store_misses_total", "result-store read misses",
		storeCounter(func(v store.Stats) uint64 { return v.Misses }))
	reg.CounterFunc("trident_store_corrupt_total", "result-store entries quarantined by checksum",
		storeCounter(func(v store.Stats) uint64 { return v.Corrupt }))
	reg.CounterFunc("trident_store_retries_total", "result-store transient-fault retries",
		storeCounter(func(v store.Stats) uint64 { return v.Retries }))
	reg.CounterFunc("trident_store_put_errors_total", "result-store writes that exhausted their retry budget",
		storeCounter(func(v store.Stats) uint64 { return v.PutErrors }))
	reg.CounterFunc("trident_store_get_errors_total", "result-store reads that exhausted their retry budget",
		storeCounter(func(v store.Stats) uint64 { return v.GetErrors }))
}
