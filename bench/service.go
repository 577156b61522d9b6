package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Every sweep simulates the first four 1GB-sensitive workloads under THP
// and Trident at Quick() scale: 8 jobs, ~140 ms of simulation.
var (
	sweepWorkloads = []string{"XSBench", "SVM", "Graph500", "GUPS"}
	sweepPolicies  = []string{"thp", "trident"}
)

const (
	// sweepClients closed-loop clients share sweepClients HTTP connections.
	sweepClients = 2
	// gridsPerClient is how many grids each client runs back to back in a
	// phase. The service runs one sweep at a time, so all but a client's
	// first sweep of a phase wait behind the other client's: with one grid
	// per client, exactly half the sweeps would wait and the median would
	// fall between the two modes.
	gridsPerClient = 4
	// warmRounds is how often each cold grid is resubmitted after a
	// simulated restart.
	warmRounds = 3
)

// svcSession runs the sweep service in process, with an fs: result store
// under the process's output directory, served over loopback HTTP.
type svcSession struct {
	*env
	st     *store.Store
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
	stop   context.CancelFunc
	done   chan error
	grid   int // next grid index

	mu     sync.Mutex
	owners map[string]opOwner // store key → the sweep whose job uses it
	putMs  []float64
	getMs  []float64
}

// opOwner attributes a store call to the sweep that caused it.
type opOwner struct {
	span, iteration int
	grid            string
}

func newSvcSession(e *env) (*svcSession, error) {
	dir, err := os.MkdirTemp(e.out, "service-")
	if err != nil {
		return nil, err
	}
	s := &svcSession{env: e, owners: map[string]opOwner{}, done: make(chan error, 1)}
	drv, err := store.OpenDriver("fs:" + filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	s.st = store.New(timedDriver{Driver: drv, onOp: s.storeOp}, store.DefaultRetry)
	s.svc, err = service.New(service.Config{
		Dir:         filepath.Join(dir, "service"),
		Store:       s.st,
		Parallelism: workers(),
		Log:         slog.New(e.jobs),
	})
	if err != nil {
		return nil, errors.Join(err, s.st.Close())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	go func() { s.done <- s.svc.Run(ctx) }()
	s.srv = httptest.NewServer(s.svc.Handler())
	s.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: sweepClients, MaxIdleConnsPerHost: sweepClients},
	}
	return s, nil
}

func (s *svcSession) close() error {
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.stop()
	err := <-s.done
	return errors.Join(err, s.st.Close())
}

// warmUp runs one untimed block on grids of its own.
func (s *svcSession) warmUp() {
	s.block(-1, 0, false)
	s.takeOps()
}

// iterate runs one block: every client submits gridsPerClient new grids
// (cold), then after each of warmRounds simulated restarts resubmits them
// under a new client name (warm), so every warm result is read from the
// store.
func (s *svcSession) iterate(it, parent int) error {
	var p0 map[string]float64
	var st0 store.Stats
	if s.traced {
		p0, st0 = phaseTotals(), s.st.Stats()
	}
	s.block(it, parent, true)
	if s.traced {
		l, st1 := s.res.Layers, s.st.Stats()
		l.Phases = append(l.Phases, deltaOf(phaseTotals(), p0))
		l.StoreGets += st1.Gets - st0.Gets
		l.StoreHits += st1.Hits - st0.Hits
		l.Accesses = s.request(0, "").Accesses
		put, get := s.takeOps()
		l.PutMs = append(l.PutMs, put...)
		l.GetMs = append(l.GetMs, get...)
	}
	return nil
}

func (s *svcSession) block(it, parent int, timed bool) {
	grids := make([][]int, sweepClients)
	for c := range grids {
		for k := 0; k < gridsPerClient; k++ {
			grids[c] = append(grids[c], s.grid)
			s.grid++
		}
	}
	for round := 0; round <= warmRounds; round++ {
		lat := &s.res.ColdMs
		if round > 0 {
			runner.ResetCache()
			restartHeap()
			lat = &s.res.WarmMs
		}
		for c, rs := range s.phase(grids, round, it, parent) {
			for k, r := range rs {
				s.record(r, grids[c][k], timed, lat)
			}
		}
	}
}

// request is grid g's sweep. Grids differ only in their seed, which the
// benchmark seed determines.
func (s *svcSession) request(g int, client string) service.SweepRequest {
	return service.SweepRequest{
		Client:    client,
		Workloads: sweepWorkloads,
		Policies:  sweepPolicies,
		MemGB:     16,
		Scale:     0.5,
		Accesses:  150_000,
		Seed:      s.seed<<16 + uint64(g) + 1,
	}
}

func gridKey(g int) string { return fmt.Sprintf("grid-%03d", g) }

// record accounts one finished sweep and checks its report against the
// grid's earlier reports (the cold twin of a warm sweep).
func (s *svcSession) record(r sweepResult, g int, timed bool, lat *[]float64) {
	s.res.Attempted++
	if r.err != nil {
		s.problem("%s: %v", gridKey(g), r.err)
		return
	}
	s.output(gridKey(g), r.hash)
	if !timed {
		return
	}
	*lat = append(*lat, ms(r.total))
	if l := s.res.Layers; l != nil {
		l.SubmitMs = append(l.SubmitMs, ms(r.submit))
		l.QueueMs = append(l.QueueMs, ms(r.queue))
		l.ReportMs = append(l.ReportMs, ms(r.report))
	}
}

// phase runs every client as a closed loop over its grids — a client
// submits its next grid once it has fetched the previous report — and
// returns once all clients are done. Round 0 is cold; round w resubmits
// the grids under the client name "c<n>-warm<w>".
func (s *svcSession) phase(grids [][]int, round, it, parent int) [][]sweepResult {
	kind := "cold"
	if round > 0 {
		kind = "warm"
	}
	out := make([][]sweepResult, len(grids))
	var wg sync.WaitGroup
	for c := range grids {
		client := fmt.Sprintf("c%d", c)
		if round > 0 {
			client = fmt.Sprintf("c%d-warm%d", c, round)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, g := range grids[c] {
				out[c] = append(out[c], s.sweep(s.request(g, client), g, it, parent, kind))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// sweepResult is one sweep as its client saw it.
type sweepResult struct {
	hash                         string
	total, submit, queue, report time.Duration
	err                          error
}

// sweep submits req, follows the sweep's event stream until it ends and
// fetches the report. Queue time runs from the submit acknowledgement to
// the first sign of the sweep running.
func (s *svcSession) sweep(req service.SweepRequest, g, it, parent int, kind string) (r sweepResult) {
	span := s.tr.begin("sweep "+kind, parent, map[string]any{"grid": gridKey(g), "client": req.Client, "iteration": it})
	defer s.tr.end(span)
	fps := fingerprints(req)
	s.own(fps, opOwner{span: span, iteration: it, grid: gridKey(g)})
	defer s.disown(fps)

	t0 := time.Now()
	id, err := s.submit(req)
	tAck := time.Now()
	s.tr.add("submit", span, t0, tAck, map[string]any{"sweep": id})
	if err != nil {
		r.err = err
		return r
	}
	tRun, tDone, state, err := s.follow(id)
	s.tr.add("queue", span, tAck, tRun, map[string]any{"sweep": id})
	s.tr.add("run", span, tRun, tDone, map[string]any{"sweep": id})
	if err == nil && state != service.StateDone {
		err = fmt.Errorf("sweep %s ended %s", id, state)
	}
	if err != nil {
		r.err = err
		return r
	}
	report, err := s.get("/sweeps/" + id + "/report")
	tEnd := time.Now()
	s.tr.add("report", span, tDone, tEnd, map[string]any{"sweep": id})
	if err != nil {
		r.err = err
		return r
	}
	if rows, want := strings.Count(string(report), "\n")-1, len(req.Workloads)*len(req.Policies); rows != want {
		r.err = fmt.Errorf("sweep %s report has %d rows, want %d", id, rows, want)
		return r
	}
	return sweepResult{hash: hashOf(report), total: tEnd.Sub(t0), submit: tAck.Sub(t0),
		queue: tRun.Sub(tAck), report: tEnd.Sub(tDone)}
}

func (s *svcSession) submit(req service.SweepRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.srv.URL+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var sw service.Sweep
	if err := json.Unmarshal(data, &sw); err != nil {
		return "", fmt.Errorf("decoding submit reply: %w", err)
	}
	return sw.ID, nil
}

// follow reads a sweep's event stream to its end and returns when the
// sweep was first seen running, when the stream ended, and the final state.
func (s *svcSession) follow(id string) (running, done time.Time, state string, err error) {
	resp, err := s.client.Get(s.srv.URL + "/sweeps/" + id + "/events")
	if err != nil {
		return running, done, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, done, "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct{ Event, State string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return running, done, "", fmt.Errorf("event %q: %w", sc.Text(), err)
		}
		if running.IsZero() && (ev.Event == "sweep_started" || ev.State == service.StateRunning) {
			running = time.Now()
		}
		if ev.Event == "state" {
			state = ev.State
		}
	}
	done = time.Now()
	if running.IsZero() {
		running = done
	}
	return running, done, state, sc.Err()
}

func (s *svcSession) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// fingerprints are the store keys of req's jobs, built the way the service
// builds its simulation configs.
func fingerprints(req service.SweepRequest) []string {
	var fps []string
	for _, wn := range req.Workloads {
		spec, _ := workload.ByName(wn)
		for _, pn := range req.Policies {
			kind, _ := sim.PolicyByName(pn)
			fps = append(fps, runner.Fingerprint(sim.Config{
				Workload: spec, Policy: kind, MemGB: req.MemGB, Scale: req.Scale,
				Accesses: req.Accesses, Seed: req.Seed, Fragment: req.Fragment,
			}))
		}
	}
	return fps
}

// own attributes the store calls on keys to o until disown.
func (s *svcSession) own(keys []string, o opOwner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		s.owners[k] = o
	}
}

func (s *svcSession) disown(keys []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.owners, k)
	}
}

// storeOp records one store driver call: its latency, and a span under the
// sweep that caused it.
func (s *svcSession) storeOp(op, key string, start, end time.Time) {
	s.mu.Lock()
	o := s.owners[key]
	if op == "put" {
		s.putMs = append(s.putMs, ms(end.Sub(start)))
	} else {
		s.getMs = append(s.getMs, ms(end.Sub(start)))
	}
	s.mu.Unlock()
	s.tr.add("store."+op, o.span, start, end, map[string]any{"iteration": o.iteration, "grid": o.grid, "key": key})
}

// takeOps returns and clears the store call latencies recorded so far.
func (s *svcSession) takeOps() (put, get []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	put, get = s.putMs, s.getMs
	s.putMs, s.getMs = nil, nil
	return put, get
}

// timedDriver decorates a store.Driver, reporting the wall time of every
// Get and Put to onOp.
type timedDriver struct {
	store.Driver
	onOp func(op, key string, start, end time.Time)
}

func (d timedDriver) Get(key string) ([]byte, error) {
	start := time.Now()
	data, err := d.Driver.Get(key)
	d.onOp("get", key, start, time.Now())
	return data, err
}

func (d timedDriver) Put(key string, data []byte) error {
	start := time.Now()
	err := d.Driver.Put(key, data)
	d.onOp("put", key, start, time.Now())
	return err
}
