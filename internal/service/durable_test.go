package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
	data, err := os.ReadFile(s.ReportPath(id))
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
	if err := os.Remove(s1.ReportPath(swB.ID)); err != nil {
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
// acts on the at-th one: it calls onHit, then tears the write to half its
// length or fails it with err (nil lets it through).
type writeCounter struct {
	n, at int
	tear  bool
	err   error
	onHit func()
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

func (w *writeCounter) ReadFault() error { return nil }

// countedStore opens an fs store in dir whose writes pass through inj, with
// one attempt per operation so every physical write is one logical Put.
func countedStore(t *testing.T, dir string, inj store.FaultInjector) *store.Store {
	t.Helper()
	fsd, err := store.NewFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	return store.New(fsd, store.Retry{Attempts: 1})
}

// TestStoreCrashPoints sweeps a crash over every store write of a tiny
// sweep — the store being the only durable memo tier — and requires the
// report to match the fault-free reference at every point:
//   - a torn write is quarantined and recomputed by the next process;
//   - a refused write (ENOSPC) costs a durability note, not the result;
//   - a drain right after the write resumes to the same report.
func TestStoreCrashPoints(t *testing.T) {
	defer runner.ResetCache()
	req := tinyReq()

	runner.ResetCache()
	clean := &writeCounter{}
	s := newService(t, Config{Store: countedStore(t, t.TempDir(), clean), Parallelism: 1})
	ref := runUntil(t, s, req, StateDone)
	want := readReport(t, s, ref.ID)
	if clean.n != ref.Jobs {
		t.Fatalf("fault-free sweep made %d store writes, want one per job (%d)", clean.n, ref.Jobs)
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
