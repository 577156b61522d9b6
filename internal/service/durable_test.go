package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/runner"
	"repro/internal/store"
)

// serve runs s in the background and returns a func that drains it.
func serve(t *testing.T, s *Service) (drain func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // a failing test still stops the Run loop
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	return func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// submitWait submits req to a running s and waits for one of states.
func submitWait(t *testing.T, s *Service, req SweepRequest, states ...string) Sweep {
	t.Helper()
	sw, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return waitState(t, s, sw.ID, states...)
}

// runUntil serves s for the one sweep req until it reaches one of states.
func runUntil(t *testing.T, s *Service, req SweepRequest, states ...string) Sweep {
	t.Helper()
	drain := serve(t, s)
	sw := submitWait(t, s, req, states...)
	drain()
	return sw
}

func readReport(t *testing.T, s *Service, id string) string {
	t.Helper()
	data, err := s.report(id)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCompletedCountsCellsTheStoreHolds: Completed is durable progress read
// from the store, so a sweep whose cells were all memo-cache hits (another
// client ran the same grid first) is complete too. After a restart,
// Completed reports what the store holds before anything re-runs.
func TestCompletedCountsCellsTheStoreHolds(t *testing.T) {
	runner.ResetCache()
	defer runner.ResetCache()
	dir := t.TempDir()
	a := tinyReq()
	b := tinyReq()
	b.Client = "other"

	// A nil Store opens fs:<Dir>/store.
	s1 := newService(t, Config{Dir: dir, Parallelism: 1})
	drain := serve(t, s1)
	swA := submitWait(t, s1, a, StateDone)
	swB := submitWait(t, s1, b, StateDone)
	drain()
	for _, sw := range []Sweep{swA, swB} {
		if sw.Completed != sw.Jobs {
			t.Fatalf("finished sweep %s reports %d/%d durable", sw.ID, sw.Completed, sw.Jobs)
		}
	}
	reportB := readReport(t, s1, swB.ID)
	if reportB != readReport(t, s1, swA.ID) {
		t.Fatal("two clients' reports of one grid differ")
	}

	// Lose one cell's entry and sweep B's report: B must re-run on resume,
	// starting from the two cells the store still holds.
	lost := gridFingerprints(b)[1]
	if err := os.Remove(filepath.Join(dir, "store", lost+".entry")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "sweeps", swB.ID+".report.entry")); err != nil {
		t.Fatal(err)
	}
	runner.ResetCache()
	s2 := newService(t, Config{Dir: dir, Parallelism: 1, Resume: true})
	if got, _ := s2.Get(swB.ID); got.State != StateQueued || got.Completed != got.Jobs-1 {
		t.Fatalf("resumed sweep is %q with %d/%d durable, want queued with %d",
			got.State, got.Completed, got.Jobs, got.Jobs-1)
	}
	if got := runUntil(t, s2, b, StateDone); got.Completed != got.Jobs {
		t.Fatalf("re-run sweep reports %d/%d durable", got.Completed, got.Jobs)
	}
	if got := readReport(t, s2, swB.ID); got != reportB {
		t.Fatalf("re-run report differs:\n--- before\n%s--- after\n%s", reportB, got)
	}
	if cs := runner.Cache(); cs.Misses != 1 || cs.StoreHits != 2 {
		t.Fatalf("re-run executed %d and reloaded %d, want 1 and 2", cs.Misses, cs.StoreHits)
	}
}

// writeCounter is a store.FaultInjector that counts physical writes and
// reads. It acts on the at-th write: it calls onHit, then tears the write
// to half its length or fails it with err (nil lets it through). It fails
// the readAt-th read with readErr.
type writeCounter struct {
	n, at int
	tear  bool
	err   error
	onHit func()

	reads, readAt int
	readErr       error
}

func (w *writeCounter) WriteFault(n int) (int, error) {
	w.n++
	if w.n != w.at {
		return n, nil
	}
	if w.onHit != nil {
		w.onHit()
	}
	if w.tear {
		return n / 2, nil
	}
	return n, w.err
}

func (w *writeCounter) ReadFault() error {
	w.reads++
	if w.reads == w.readAt {
		return w.readErr
	}
	return nil
}

// countedStore opens an fs store in dir whose writes and reads pass
// through inj, with one attempt per operation so every physical write is
// one logical Put and every physical read one Get.
func countedStore(t *testing.T, dir string, inj store.FaultInjector) *store.Store {
	t.Helper()
	fsd, err := store.NewFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	return store.New(fsd, store.Retry{Attempts: 1})
}

// TestStoreCrashPoints sweeps a crash over every store write of a tiny
// sweep — the store being the only durable memo tier — and a failure over
// every store read of it and of a second process that reads the results
// back, and requires the report to match the fault-free reference at every
// point:
//   - a torn write is quarantined and recomputed by the next process;
//   - a refused write (ENOSPC) costs a durability note, not the result;
//   - a drain right after the write resumes to the same report;
//   - a failed read (EIO) costs a note and a recomputation, not the result.
func TestStoreCrashPoints(t *testing.T) {
	defer runner.ResetCache()
	req := tinyReq()

	runner.ResetCache()
	clean := &writeCounter{}
	cleanStore := countedStore(t, t.TempDir(), clean)
	s := newService(t, Config{Store: cleanStore, Parallelism: 1})
	ref := runUntil(t, s, req, StateDone)
	want := readReport(t, s, ref.ID)
	if clean.n != ref.Jobs {
		t.Fatalf("fault-free sweep made %d store writes, want one per job (%d)", clean.n, ref.Jobs)
	}
	runner.ResetCache()
	runUntil(t, newService(t, Config{Store: cleanStore, Parallelism: 1}), req, StateDone)
	if clean.reads != 2*ref.Jobs {
		t.Fatalf("fault-free sweep and reload made %d store reads, want two per job (%d)", clean.reads, 2*ref.Jobs)
	}

	for n := 1; n <= clean.reads; n++ {
		t.Run(fmt.Sprintf("read-%d", n), func(t *testing.T) {
			inj := &writeCounter{readAt: n, readErr: syscall.EIO}
			st := countedStore(t, t.TempDir(), inj)
			var notes uint64
			// The first process fills the store, the second reads it back.
			for p := 0; p < 2; p++ {
				runner.ResetCache()
				sp := newService(t, Config{Store: st, Parallelism: 1})
				if got := runUntil(t, sp, req, StateDone, StateFailed); got.State != StateDone {
					t.Fatalf("read %d failed, process %d: sweep %q (%s)", n, p, got.State, got.Error)
				}
				if got := readReport(t, sp, ref.ID); got != want {
					t.Fatalf("read %d failed, process %d: report differs:\n--- want\n%s--- got\n%s", n, p, want, got)
				}
				notes += sp.notes.Load()
			}
			if inj.reads < n || notes != 1 {
				t.Fatalf("read %d failed: %d reads, %d notes; want the fault to fire and note once", n, inj.reads, notes)
			}
		})
	}

	for n := 1; n <= ref.Jobs; n++ {
		t.Run(fmt.Sprintf("torn-%d", n), func(t *testing.T) {
			runner.ResetCache()
			storeDir := t.TempDir()
			st := countedStore(t, storeDir, &writeCounter{at: n, tear: true})
			s1 := newService(t, Config{Store: st, Parallelism: 1})
			if runUntil(t, s1, req, StateDone); readReport(t, s1, ref.ID) != want {
				t.Fatalf("write %d torn: report differs", n)
			}
			// A fresh process over the same store finds the torn entry.
			runner.ResetCache()
			s2 := newService(t, Config{Store: st, Parallelism: 1})
			runUntil(t, s2, req, StateDone)
			if got := readReport(t, s2, ref.ID); got != want {
				t.Fatalf("write %d torn, next process: report differs:\n--- want\n%s--- got\n%s", n, want, got)
			}
			if cs, ss := runner.Cache(), st.Stats(); cs.Misses != 1 || ss.Corrupt != 1 {
				t.Fatalf("write %d torn: %d recomputed, %d quarantined; want 1 and 1", n, cs.Misses, ss.Corrupt)
			}
			if q, _ := os.ReadDir(filepath.Join(storeDir, "quarantine")); len(q) != 1 {
				t.Fatalf("write %d torn: %d quarantined files, want 1", n, len(q))
			}
		})
		t.Run(fmt.Sprintf("enospc-%d", n), func(t *testing.T) {
			runner.ResetCache()
			st := countedStore(t, t.TempDir(), &writeCounter{at: n, err: syscall.ENOSPC})
			s1 := newService(t, Config{Store: st, Parallelism: 1})
			got := runUntil(t, s1, req, StateDone, StateFailed)
			if got.State != StateDone || readReport(t, s1, ref.ID) != want {
				t.Fatalf("write %d refused: sweep %q (%s), or its report differs", n, got.State, got.Error)
			}
			if notes := s1.notes.Load(); notes != 1 {
				t.Fatalf("write %d refused: %d durability notes, want 1", n, notes)
			}
			if got.Completed != got.Jobs-1 {
				t.Fatalf("write %d refused: %d/%d durable, want %d", n, got.Completed, got.Jobs, got.Jobs-1)
			}
		})
		t.Run(fmt.Sprintf("drain-%d", n), func(t *testing.T) {
			runner.ResetCache()
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			st := countedStore(t, filepath.Join(dir, "store"), &writeCounter{at: n, onHit: cancel})
			s1 := newService(t, Config{Dir: dir, Store: st, Parallelism: 1})
			sw, err := s1.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := s1.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if got, _ := s1.Get(sw.ID); got.State != StateInterrupted || got.Completed != n {
				t.Fatalf("drain after write %d: sweep %q with %d durable, want interrupted with %d",
					n, got.State, got.Completed, n)
			}
			runner.ResetCache()
			s2 := newService(t, Config{Dir: dir, Store: st, Parallelism: 1, Resume: true})
			runUntil(t, s2, req, StateDone)
			if got := readReport(t, s2, sw.ID); got != want {
				t.Fatalf("drain after write %d, resumed: report differs:\n--- want\n%s--- got\n%s", n, want, got)
			}
			if cs := runner.Cache(); cs.StoreHits != uint64(n) {
				t.Fatalf("drain after write %d, resumed: %d store hits, want %d", n, cs.StoreHits, n)
			}
		})
	}
}

// TestRecordCrashPoints is TestStoreCrashPoints' sibling over the sweep
// records: each records write of a tiny sweep — the request, then the
// report — is torn or refused in turn, and a restart with Resume over the
// same directories must recover what DESIGN.md §9 promises:
//   - a refused request fails Submit, and a torn one is quarantined and
//     leaves no sweep (it was never durably acknowledged);
//   - a refused report fails the sweep with the error recorded, and a torn
//     one is quarantined; either way the restart re-runs the sweep,
//     replaying every cell from the result store, to the reference report.
//
// Then each records read of the sweep, of a restart with Resume and of
// the report fetches is failed in turn (EIO): a failed request read fails
// the restart rather than forget the sweep, a failed report read re-runs
// it, and restarts end with the reference report.
func TestRecordCrashPoints(t *testing.T) {
	defer runner.ResetCache()
	req := tinyReq()
	// recordedErr builds a fresh service over dir whose record IO passes
	// through inj, with the result store at <dir>/store as New lays it out.
	recordedErr := func(t *testing.T, dir string, inj store.FaultInjector, resume bool) (*Service, error) {
		t.Helper()
		st, err := store.Open("fs:" + filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		return open(Config{Store: st, Parallelism: 1, Resume: resume}, countedStore(t, filepath.Join(dir, "sweeps"), inj))
	}
	recorded := func(t *testing.T, dir string, inj store.FaultInjector) *Service {
		t.Helper()
		s, err := recordedErr(t, dir, inj, false)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	runner.ResetCache()
	clean := &writeCounter{}
	refDir := t.TempDir()
	s := recorded(t, refDir, clean)
	ref := runUntil(t, s, req, StateDone)
	want := readReport(t, s, ref.ID)
	if clean.n != 2 {
		t.Fatalf("fault-free sweep made %d record writes, want 2 (request, report)", clean.n)
	}
	s, err := recordedErr(t, refDir, clean, true)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, s, req, StateDone)
	readReport(t, s, ref.ID)
	if clean.reads != 4 {
		t.Fatalf("fault-free sweep and restart made %d record reads, want 4 (report; request, report on resume; report)", clean.reads)
	}

	for n := 1; n <= clean.reads; n++ {
		t.Run(fmt.Sprintf("read-%d", n), func(t *testing.T) {
			runner.ResetCache()
			dir := t.TempDir()
			inj := &writeCounter{readAt: n, readErr: syscall.EIO}
			s1 := recorded(t, dir, inj)
			runUntil(t, s1, req, StateDone)
			if got, err := s1.report(ref.ID); err == nil && string(got) != want {
				t.Fatalf("read %d failed: report differs", n)
			}
			for restart := 1; ; restart++ {
				if restart > 3 {
					t.Fatalf("read %d failed: no reference report after %d restarts", n, restart-1)
				}
				runner.ResetCache()
				s2, err := recordedErr(t, dir, inj, true)
				if err != nil {
					if !strings.Contains(err.Error(), ref.ID+".request") {
						t.Fatalf("read %d failed: restart error %q does not name the request record", n, err)
					}
					continue
				}
				if got, _ := s2.Get(ref.ID); got.State != StateDone && got.State != StateQueued {
					t.Fatalf("read %d failed: restart sees the sweep %q, want done or queued", n, got.State)
				}
				runUntil(t, s2, req, StateDone)
				got, err := s2.report(ref.ID)
				if err != nil {
					continue
				}
				if string(got) != want {
					t.Fatalf("read %d failed: report differs:\n--- want\n%s--- got\n%s", n, want, got)
				}
				break
			}
			if inj.reads < n {
				t.Fatalf("read %d never happened (%d reads)", n, inj.reads)
			}
		})
	}

	for n := 1; n <= clean.n; n++ {
		for _, tear := range []bool{true, false} {
			name := fmt.Sprintf("refused-%d", n)
			if tear {
				name = fmt.Sprintf("torn-%d", n)
			}
			t.Run(name, func(t *testing.T) {
				runner.ResetCache()
				dir := t.TempDir()
				s1 := recorded(t, dir, &writeCounter{at: n, tear: tear, err: syscall.ENOSPC})
				drain := serve(t, s1)
				sw, err := s1.Submit(req)
				switch {
				case n == 1 && !tear:
					if err == nil {
						t.Fatal("refused request: Submit succeeded")
					}
					if len(s1.List()) != 0 {
						t.Fatal("refused request: the sweep is known")
					}
				case err != nil:
					t.Fatal(err)
				default:
					got := waitState(t, s1, sw.ID, StateDone, StateFailed)
					if tear && got.State != StateDone {
						t.Fatalf("torn record %d: sweep %q (%q), want done", n, got.State, got.Error)
					}
					if n == 2 && !tear && (got.State != StateFailed || !strings.Contains(got.Error, "writing report")) {
						t.Fatalf("refused report: sweep %q (%q), want failed with the write error", got.State, got.Error)
					}
				}
				drain()

				runner.ResetCache()
				s2 := newService(t, Config{Dir: dir, Parallelism: 1, Resume: true})
				if n == 1 {
					if len(s2.List()) != 0 {
						t.Fatalf("%s: the restart knows %d sweeps, want none", name, len(s2.List()))
					}
				} else {
					if got, _ := s2.Get(ref.ID); got.State != StateQueued {
						t.Fatalf("%s: restart sees the sweep %q, want queued", name, got.State)
					}
					runUntil(t, s2, req, StateDone)
					if got := readReport(t, s2, ref.ID); got != want {
						t.Fatalf("%s: re-run report differs:\n--- want\n%s--- got\n%s", name, want, got)
					}
					if cs := runner.Cache(); cs.Misses != 0 || cs.StoreHits != uint64(ref.Jobs) {
						t.Fatalf("%s: re-run executed %d and reloaded %d, want 0 and %d", name, cs.Misses, cs.StoreHits, ref.Jobs)
					}
				}
				wantQ := 0
				if tear {
					wantQ = 1
				}
				if q, _ := os.ReadDir(filepath.Join(dir, "sweeps", "quarantine")); len(q) != wantQ {
					t.Fatalf("%s: %d quarantined records, want %d", name, len(q), wantQ)
				}
			})
		}
	}
}

// TestRescanFailsOnUnreadableRequest: a request record that cannot be read
// on -resume (an IO error past the retry budget, not a torn entry) belongs
// to an acknowledged sweep. The restart must fail and name the record, not
// forget the sweep; once the read succeeds, the sweep is recovered.
func TestRescanFailsOnUnreadableRequest(t *testing.T) {
	defer runner.ResetCache()
	runner.ResetCache()
	dir := t.TempDir()
	s1 := newService(t, Config{Dir: dir, Parallelism: 1})
	sw := runUntil(t, s1, tinyReq(), StateDone)

	st, err := store.Open("fs:" + filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	inj := &writeCounter{readAt: 1, readErr: syscall.EIO}
	records := countedStore(t, filepath.Join(dir, "sweeps"), inj)
	if _, err := open(Config{Store: st, Parallelism: 1, Resume: true}, records); err == nil || !strings.Contains(err.Error(), sw.ID+".request") {
		t.Fatalf("resume over an unreadable request record: err %v, want one naming %s.request", err, sw.ID)
	}
	s2, err := open(Config{Store: st, Parallelism: 1, Resume: true}, records)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s2.Get(sw.ID); got.State != StateDone {
		t.Fatalf("second restart sees the sweep %q, want done", got.State)
	}
}

// TestCorruptReportIsRecomputed: a done sweep whose report entry no longer
// verifies, or is gone, is re-run on the next GET of its report, which
// answers 409 with the new state; once the sweep is done again the report
// is byte-identical to the original. A transient read error answers 500
// and leaves the sweep done.
func TestCorruptReportIsRecomputed(t *testing.T) {
	defer runner.ResetCache()
	runner.ResetCache()
	dir := t.TempDir()
	st, err := store.Open("fs:" + filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	// Read 1 (the first report fetch) fails; the rest pass.
	inj := &writeCounter{readAt: 1, readErr: syscall.EIO}
	s, err := open(Config{Store: st, Parallelism: 1}, countedStore(t, filepath.Join(dir, "sweeps"), inj))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/sweeps/" + sweepID(tinyReq()) + "/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	drain := serve(t, s)
	defer drain()
	sw := submitWait(t, s, tinyReq(), StateDone)

	if code, body := get(); code != http.StatusInternalServerError {
		t.Fatalf("report read failing with EIO = %d (%s), want 500", code, body)
	}
	if got, _ := s.Get(sw.ID); got.State != StateDone || got.Attempts != sw.Attempts {
		t.Fatalf("after a transient report read error the sweep is %q (attempt %d), want done (attempt %d)", got.State, got.Attempts, sw.Attempts)
	}
	code, want := get()
	if code != http.StatusOK {
		t.Fatalf("report = %d (%s)", code, want)
	}

	entry := filepath.Join(dir, "sweeps", sw.ID+".report.entry")
	fi, err := os.Stat(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(entry, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	code, body := get()
	if code != http.StatusConflict || !strings.Contains(body, "sweep is "+StateQueued) {
		t.Fatalf("report with a torn entry = %d (%s), want 409 naming the new state, queued", code, body)
	}
	waitState(t, s, sw.ID, StateDone)
	if got, _ := s.Get(sw.ID); got.Attempts != sw.Attempts+1 {
		t.Fatalf("torn report: sweep ran %d attempts, want %d", got.Attempts, sw.Attempts+1)
	}
	if code, got := get(); code != http.StatusOK || got != want {
		t.Fatalf("recomputed report = %d, differs from the original:\n--- want\n%s--- got\n%s", code, want, got)
	}

	// A report entry that is gone is recomputed the same way.
	if err := os.Remove(entry); err != nil {
		t.Fatal(err)
	}
	if code, body := get(); code != http.StatusConflict || !strings.Contains(body, "sweep is "+StateQueued) {
		t.Fatalf("report with no entry = %d (%s), want 409 naming the new state, queued", code, body)
	}
	waitState(t, s, sw.ID, StateDone)
	if code, got := get(); code != http.StatusOK || got != want {
		t.Fatalf("report recomputed after removal = %d, differs from the original:\n--- want\n%s--- got\n%s", code, want, got)
	}
}
