package runner

import (
	"testing"

	"repro/internal/stats"
)

// resetProgress discards all progress tracking.
func resetProgress() {
	trackMu.Lock()
	defer trackMu.Unlock()
	trackList = nil
	trackIdx = map[string]*tracker{}
	jobWall = stats.Histogram{}
}

// TestProgressTracking: a labelled batch shows up in Progress with the
// done/failed partition matching the report, and goes inactive when the
// batch ends.
func TestProgressTracking(t *testing.T) {
	resetProgress()
	defer resetProgress()

	jobs := make([]Job, 5)
	for i := range jobs {
		boom := i == 3
		jobs[i] = Job{
			Run: func() any {
				if boom {
					panic("boom")
				}
				return nil
			},
			Commit: func(any) {},
		}
	}
	rep := Execute(jobs, Options{Label: "prog-test", Parallelism: 2})
	if len(rep.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(rep.Failures))
	}

	p, ok := ProgressFor("prog-test")
	if !ok {
		t.Fatal("no progress for labelled batch")
	}
	if p.Jobs != 5 || p.Done != 4 || p.Failed != 1 || p.Running != 0 {
		t.Errorf("progress = %+v, want 5 jobs / 4 done / 1 failed / 0 running", p)
	}
	if p.Active {
		t.Error("batch still active after Execute returned")
	}
	if p.WallMs <= 0 {
		t.Error("batch wall time not recorded")
	}

	found := false
	for _, q := range Progress() {
		if q.Label == "prog-test" {
			found = true
		}
	}
	if !found {
		t.Error("labelled batch missing from Progress()")
	}

	if n, vs := JobWallQuantiles([]float64{50}); n != 5 || len(vs) != 1 {
		t.Errorf("JobWallQuantiles = (%d, %v), want 5 jobs and one quantile", n, vs)
	}

	// A second batch under the same label accumulates.
	Execute(jobs[:2], Options{Label: "prog-test"})
	p, _ = ProgressFor("prog-test")
	if p.Jobs != 7 || p.Done != 6 {
		t.Errorf("accumulated progress = %+v, want 7 jobs / 6 done", p)
	}
}

// TestProgressUnlabelled: batches without a label are not tracked.
func TestProgressUnlabelled(t *testing.T) {
	resetProgress()
	defer resetProgress()
	Execute([]Job{{Run: func() any { return nil }, Commit: func(any) {}}}, Options{})
	if got := Progress(); len(got) != 0 {
		t.Errorf("unlabelled batch tracked: %+v", got)
	}
}
