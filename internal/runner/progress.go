package runner

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// ExperimentProgress is a point-in-time snapshot of one labelled Execute
// batch (an experiment). Counts are cumulative across batches sharing a
// label within the process; cmd/experiments serves these snapshots on its
// `/progress` endpoint and folds the phase wall times into perf.json.
type ExperimentProgress struct {
	Label string `json:"label"`
	// Jobs is the number of jobs submitted; Running/Done/Failed partition
	// the jobs seen so far (Failed includes skipped and callback-panicked
	// jobs).
	Jobs    int `json:"jobs"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// CacheHits / StoreHits count jobs served from the memo cache or the
	// persistent result store instead of executed.
	CacheHits int `json:"cache_hits"`
	StoreHits int `json:"store_hits"`
	// Active reports whether an Execute batch with this label is running.
	Active bool `json:"active"`
	// WallMs is total batch wall time; PhaseWallMs breaks the executed
	// jobs' wall time down by simulation phase (build/populate/daemons/
	// measure), summed across jobs.
	WallMs      float64            `json:"wall_ms"`
	PhaseWallMs map[string]float64 `json:"phase_wall_ms,omitempty"`
}

// tracker is the live mutable state behind one label. All access goes
// through trackMu; the per-method nil receiver checks make an unlabelled
// batch (label == "") a no-op.
type tracker struct{ p ExperimentProgress }

var (
	trackMu   sync.Mutex
	trackList []*tracker
	trackIdx  = map[string]*tracker{}
	// jobWall collects per-job wall times (ms) across all batches, for the
	// /metrics job-duration quantiles.
	jobWall stats.Histogram
)

func beginBatch(label string, jobs int) *tracker {
	if label == "" {
		return nil
	}
	trackMu.Lock()
	defer trackMu.Unlock()
	t := trackIdx[label]
	if t == nil {
		t = &tracker{}
		t.p.Label = label
		t.p.PhaseWallMs = map[string]float64{}
		trackIdx[label] = t
		trackList = append(trackList, t)
	}
	t.p.Jobs += jobs
	t.p.Active = true
	return t
}

func (t *tracker) jobStarted() {
	if t == nil {
		return
	}
	trackMu.Lock()
	t.p.Running++
	trackMu.Unlock()
}

func (t *tracker) jobSkipped() {
	if t == nil {
		return
	}
	trackMu.Lock()
	t.p.Failed++
	trackMu.Unlock()
}

func (t *tracker) jobFinished(r *jobResult) {
	if t == nil {
		return
	}
	trackMu.Lock()
	defer trackMu.Unlock()
	t.p.Running--
	if r.panicked != nil || r.err != nil {
		t.p.Failed++
	} else {
		t.p.Done++
	}
	if r.cached {
		t.p.CacheHits++
	}
	if r.fromStore {
		t.p.StoreHits++
	}
	for phase, ms := range r.phaseWall {
		t.p.PhaseWallMs[phase] += ms
	}
}

// deliverFailed reclassifies a job whose run succeeded but whose
// submission-order callback panicked.
func (t *tracker) deliverFailed() {
	if t == nil {
		return
	}
	trackMu.Lock()
	t.p.Done--
	t.p.Failed++
	trackMu.Unlock()
}

func (t *tracker) endBatch(wall time.Duration) {
	if t == nil {
		return
	}
	trackMu.Lock()
	t.p.Active = false
	t.p.WallMs += float64(wall.Nanoseconds()) / 1e6
	trackMu.Unlock()
}

func recordJobWall(ms float64) {
	trackMu.Lock()
	jobWall.Record(ms)
	trackMu.Unlock()
}

func (t *tracker) snapshotLocked() ExperimentProgress {
	p := t.p
	p.PhaseWallMs = make(map[string]float64, len(t.p.PhaseWallMs))
	for k, v := range t.p.PhaseWallMs {
		p.PhaseWallMs[k] = v
	}
	return p
}

// Progress returns snapshots of every labelled batch this process has
// executed, in first-seen order.
func Progress() []ExperimentProgress {
	trackMu.Lock()
	defer trackMu.Unlock()
	out := make([]ExperimentProgress, 0, len(trackList))
	for _, t := range trackList {
		out = append(out, t.snapshotLocked())
	}
	return out
}

// ProgressFor returns the snapshot for one label.
func ProgressFor(label string) (ExperimentProgress, bool) {
	trackMu.Lock()
	defer trackMu.Unlock()
	t := trackIdx[label]
	if t == nil {
		return ExperimentProgress{}, false
	}
	return t.snapshotLocked(), true
}

// JobWallQuantiles returns how many jobs have completed and their
// wall-time quantiles in milliseconds (ps are percentiles, 0–100).
func JobWallQuantiles(ps []float64) (int, []float64) {
	trackMu.Lock()
	defer trackMu.Unlock()
	return jobWall.Count(), jobWall.Quantiles(ps)
}
