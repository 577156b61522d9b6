package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/store"
)

// tinyReq is a sweep small enough for tests but with enough jobs that a
// drain can land mid-sweep.
func tinyReq() SweepRequest {
	return SweepRequest{
		Client:    "test",
		Workloads: []string{"GUPS"},
		Policies:  []string{"4k", "thp", "trident"},
		MemGB:     8,
		Scale:     0.25,
		Accesses:  20000,
		Seed:      3,
	}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls until the sweep reaches one of the wanted states.
func waitState(t *testing.T, s *Service, id string, states ...string) Sweep {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		sw, ok := s.Get(id)
		if ok {
			for _, st := range states {
				if sw.State == st {
					return sw
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	sw, _ := s.Get(id)
	t.Fatalf("sweep %s stuck in %q, wanted one of %v", id, sw.State, states)
	return Sweep{}
}

func TestSweepIDContentAddressed(t *testing.T) {
	a, b := tinyReq(), tinyReq()
	if sweepID(a) != sweepID(b) {
		t.Fatal("identical requests got different ids")
	}
	if len(sweepID(a)) != 16 {
		t.Fatalf("id %q is not 16 hex chars", sweepID(a))
	}
	b.Seed++
	if sweepID(a) == sweepID(b) {
		t.Fatal("distinct requests share an id")
	}
}

func TestValidationRejectsBadRequests(t *testing.T) {
	s := newService(t, Config{})
	for name, mut := range map[string]func(*SweepRequest){
		"no workloads":     func(r *SweepRequest) { r.Workloads = nil },
		"no policies":      func(r *SweepRequest) { r.Policies = nil },
		"unknown workload": func(r *SweepRequest) { r.Workloads = []string{"NoSuchBench"} },
		"unknown policy":   func(r *SweepRequest) { r.Policies = []string{"5k"} },
		"negative scale":   func(r *SweepRequest) { r.Scale = -1 },
	} {
		req := tinyReq()
		mut(&req)
		if _, err := s.Submit(req); err == nil {
			t.Errorf("%s: admitted", name)
		}
	}
}

// TestAdmissionControl: global bound, per-client bound, idempotent
// resubmission, and the draining gate — all without a Run loop, so
// everything stays queued.
func TestAdmissionControl(t *testing.T) {
	s := newService(t, Config{QueueLimit: 2, PerClientLimit: 1})

	a := tinyReq()
	first, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	// Identical resubmission: same sweep back, not a second queue slot.
	again, err := s.Submit(a)
	if err != nil || again.ID != first.ID {
		t.Fatalf("resubmission = (%+v, %v), want the original sweep", again, err)
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("queue depth %d after idempotent resubmit, want 1", s.QueueDepth())
	}

	// Same client, different sweep: the fairness cap rejects it.
	b := tinyReq()
	b.Seed = 4
	if _, err := s.Submit(b); err != ErrClientBusy {
		t.Fatalf("second sweep for one client: %v, want ErrClientBusy", err)
	}

	// Another client fits (queue now full)...
	c := tinyReq()
	c.Client = "other"
	if _, err := s.Submit(c); err != nil {
		t.Fatal(err)
	}
	// ...and a third client hits the global bound.
	d := tinyReq()
	d.Client = "third"
	if _, err := s.Submit(d); err != ErrQueueFull {
		t.Fatalf("over-limit submission: %v, want ErrQueueFull", err)
	}

	s.Drain()
	e := tinyReq()
	e.Client = "late"
	if _, err := s.Submit(e); err != ErrDraining {
		t.Fatalf("post-drain submission: %v, want ErrDraining", err)
	}
}

// TestRoundRobinFairness: with two clients queued, dequeue alternates
// between them regardless of submission order.
func TestRoundRobinFairness(t *testing.T) {
	s := newService(t, Config{PerClientLimit: 2})
	mk := func(client string, seed uint64) string {
		req := tinyReq()
		req.Client, req.Seed = client, seed
		sw, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return sw.ID
	}
	a1 := mk("a", 10)
	a2 := mk("a", 11)
	b1 := mk("b", 12)
	got := []string{s.next().id, s.next().id, s.next().id}
	want := []string{a1, b1, a2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v (client a must not starve b)", got, want)
		}
	}
	if s.next() != nil {
		t.Fatal("queue should be empty")
	}
}

// TestBackoffDeterministic: the retry schedule is a pure function of
// (seed, id, attempt), capped, and never below half the exponential step.
func TestBackoffDeterministic(t *testing.T) {
	base, cap := 50*time.Millisecond, 2*time.Second
	for attempt := 0; attempt < 10; attempt++ {
		d1 := backoffDelay(1, "abc", attempt, base, cap)
		d2 := backoffDelay(1, "abc", attempt, base, cap)
		if d1 != d2 {
			t.Fatalf("attempt %d: %v != %v, schedule not deterministic", attempt, d1, d2)
		}
		step := base << attempt
		if step > cap || step <= 0 {
			step = cap
		}
		if d1 < step/2 || d1 > step {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d1, step/2, step)
		}
	}
	if backoffDelay(1, "abc", 0, base, cap) == backoffDelay(2, "abc", 0, base, cap) {
		t.Fatal("retry seed does not feed the jitter")
	}
}

// TestRetryThenFail: a sweep whose jobs error deterministically burns its
// whole retry budget on the pinned backoff schedule, then fails with the
// job's reason — and the service moves on to the next sweep.
func TestRetryThenFail(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	var delays []time.Duration
	s := newService(t, Config{MaxRetries: 2})
	s.sleep = func(d time.Duration) { delays = append(delays, d) }

	// Fragment on a 1 GB machine cannot fit GUPS: a deterministic run error.
	req := tinyReq()
	req.MemGB = 1
	req.Fragment = true
	sw, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	got := waitState(t, s, sw.ID, StateFailed)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 1 + 2 retries", got.Attempts)
	}
	if !strings.Contains(got.Error, "too small to fragment") {
		t.Fatalf("error %q does not surface the job failure", got.Error)
	}
	want := []time.Duration{
		backoffDelay(s.cfg.RetrySeed, sw.ID, 0, s.cfg.BackoffBase, s.cfg.BackoffCap),
		backoffDelay(s.cfg.RetrySeed, sw.ID, 1, s.cfg.BackoffBase, s.cfg.BackoffCap),
	}
	if len(delays) != 2 || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", delays, want)
	}
}

// TestDrainResumeByteIdentical is the service-level crash contract: a
// drain (standing in for SIGTERM, with completed work durably journaled)
// followed by a restart with Resume must finish the sweep and produce a
// report byte-identical to an uninterrupted run.
func TestDrainResumeByteIdentical(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()

	dir := t.TempDir()
	st, err := store.Open("fs:" + dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	req := tinyReq()
	req.Accesses = 120000 // slow enough that the drain lands mid-sweep

	// Phase 1: start, submit, drain once durable progress exists.
	s1 := newService(t, Config{Dir: dir, Store: st, Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s1.Run(ctx) }()
	sw, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := s1.Get(sw.ID)
		if cur.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable progress before drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Submit(tinyReq()); err != ErrDraining {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
	interrupted, _ := s1.Get(sw.ID)
	if interrupted.State == StateDone {
		t.Skip("sweep finished before the drain landed; nothing to resume")
	}
	if interrupted.State != StateInterrupted {
		t.Fatalf("drained sweep is %q, want interrupted", interrupted.State)
	}

	// Phase 2: a fresh "process" (memo cache reset) resumes the same dir
	// and store and finishes the sweep.
	runner.ResetCache()
	s2 := newService(t, Config{Dir: dir, Store: st, Parallelism: 1, Resume: true})
	if got, ok := s2.Get(sw.ID); !ok || got.State != StateQueued {
		t.Fatalf("resume did not re-enqueue the sweep: %+v (known %v)", got, ok)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Run(ctx2) }()
	waitState(t, s2, sw.ID, StateDone)
	cancel2()
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	resumed, err := s2.report(sw.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 3: reference — same sweep, fresh everything, no interruption.
	runner.ResetCache()
	refStore, err := store.Open("mem:")
	if err != nil {
		t.Fatal(err)
	}
	s3 := newService(t, Config{Store: refStore, Parallelism: 1})
	ctx3, cancel3 := context.WithCancel(context.Background())
	done3 := make(chan error, 1)
	go func() { done3 <- s3.Run(ctx3) }()
	ref, err := s3.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ID != sw.ID {
		t.Fatalf("content address changed: %s vs %s", ref.ID, sw.ID)
	}
	waitState(t, s3, ref.ID, StateDone)
	cancel3()
	if err := <-done3; err != nil {
		t.Fatal(err)
	}
	refCSV, err := s3.report(ref.ID)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(resumed, refCSV) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- reference\n%s--- resumed\n%s", refCSV, resumed)
	}
	if len(refCSV) == 0 || !bytes.Contains(refCSV, []byte("GUPS")) {
		t.Fatalf("implausible report:\n%s", refCSV)
	}
}

// TestHTTPAPI drives the full HTTP surface: submit → poll → report, plus
// health/readiness and the backpressure status codes.
func TestHTTPAPI(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	st, err := store.Open("mem:")
	if err != nil {
		t.Fatal(err)
	}
	s := newService(t, Config{Store: st, QueueLimit: 1, PerClientLimit: 1, Parallelism: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d while serving", code)
	}
	if code, _ := get("/sweeps/ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown sweep = %d, want 404", code)
	}
	if resp, _ := post("{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"workloads":["GUPS"],"policies":["warp-drive"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy = %d, want 400", resp.StatusCode)
	}

	// Queue a sweep (no Run loop yet, so it stays queued)...
	reqJSON, _ := json.Marshal(tinyReq())
	resp, body := post(string(reqJSON))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d (%s), want 202", resp.StatusCode, body)
	}
	var sw Sweep
	if err := json.Unmarshal([]byte(body), &sw); err != nil || sw.ID == "" {
		t.Fatalf("submit response %q: %v", body, err)
	}
	// ...its report is not ready...
	if code, _ := get("/sweeps/" + sw.ID + "/report"); code != http.StatusConflict {
		t.Fatalf("premature report = %d, want 409", code)
	}
	// ...and the full queue pushes back with Retry-After.
	other := tinyReq()
	other.Client, other.Seed = "other", 9
	otherJSON, _ := json.Marshal(other)
	resp, _ = post(string(otherJSON))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-limit submit = %d (Retry-After %q), want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Now run it to completion and fetch the report.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	waitState(t, s, sw.ID, StateDone)

	code, csv := get("/sweeps/" + sw.ID + "/report")
	if code != http.StatusOK || !strings.Contains(csv, "GUPS") {
		t.Fatalf("report = %d:\n%s", code, csv)
	}
	lines := strings.Count(strings.TrimSpace(csv), "\n")
	if lines != len(tinyReq().Policies) { // header + one row per policy
		t.Fatalf("report has %d data rows, want %d:\n%s", lines, len(tinyReq().Policies), csv)
	}
	if code, body := get("/sweeps"); code != http.StatusOK || !strings.Contains(body, sw.ID) {
		t.Fatalf("list = %d:\n%s", code, body)
	}

	// Drain: readiness flips, liveness stays.
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200", code)
	}
	resp, _ = post(string(otherJSON))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

// TestResumeSkipsDoneSweeps: restarting over a directory whose sweep
// already has a report must not re-enqueue it.
func TestResumeSkipsDoneSweeps(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	dir := t.TempDir()
	s1 := newService(t, Config{Dir: dir, Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s1.Run(ctx) }()
	req := tinyReq()
	req.Policies = []string{"4k"}
	sw, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, sw.ID, StateDone)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The sweep area is a store: two entries and its quarantine directory.
	ents, err := os.ReadDir(filepath.Join(dir, "sweeps"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if want := []string{sw.ID + ".report.entry", sw.ID + ".request.entry", "quarantine"}; !slices.Equal(names, want) {
		t.Fatalf("sweep area holds %v, want %v", names, want)
	}

	s2 := newService(t, Config{Dir: dir, Resume: true})
	got, ok := s2.Get(sw.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("restart sees sweep as (%+v, %v), want done without re-running", got, ok)
	}
	if s2.QueueDepth() != 0 {
		t.Fatalf("done sweep re-enqueued: depth %d", s2.QueueDepth())
	}
}

// TestFreshStartClearsSweepArea: without Resume the sweep area and the
// service-owned store are cleared, mirroring cmd/experiments' -resume
// contract.
func TestFreshStartClearsSweepArea(t *testing.T) {
	dir := t.TempDir()
	s1 := newService(t, Config{Dir: dir})
	if _, err := s1.Submit(tinyReq()); err != nil {
		t.Fatal(err)
	}
	if err := s1.cfg.Store.Put("stale", []byte("result")); err != nil {
		t.Fatal(err)
	}
	s2 := newService(t, Config{Dir: dir})
	if s2.cfg.Store.Has("stale") {
		t.Fatal("fresh start kept the service-owned store")
	}
	if len(s2.List()) != 0 {
		t.Fatalf("fresh start kept %d sweeps", len(s2.List()))
	}
	if keys, err := s2.records.Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("sweep area not cleared: %v (err %v)", keys, err)
	}
}
