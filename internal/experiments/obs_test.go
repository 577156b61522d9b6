package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// obsTestSettings is a deliberately small grid so the byte-identical pin
// stays cheap: Table 4's eight fragmented Trident runs at test scale.
func obsTestSettings() Settings {
	return Settings{MemGB: 8, Scale: 0.25, Accesses: 40_000, Seed: 3, TLB: ScaledTLB()}
}

// TestObsByteIdenticalCSV pins the PR's acceptance invariant at the
// experiment level: enabling full tracing + sampling must leave the report
// CSV byte-identical to an untraced run, while still producing a parseable
// trace and a non-empty time series on the side.
func TestObsByteIdenticalCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	runner.ResetCache()
	plain := Table4(obsTestSettings()).CSV()

	// Reset the memo cache so the traced pass re-executes the simulations
	// (a cache hit records nothing — only first executions are observable).
	runner.ResetCache()
	dir := t.TempDir()
	s := obsTestSettings()
	var made []*obs.Observer
	s.Obs = func(label string) *obs.Observer {
		ob := obs.NewObserver(
			filepath.Join(dir, label+".json"),
			filepath.Join(dir, label+"-series.csv"),
			1, true)
		made = append(made, ob)
		return ob
	}
	traced := Table4(s).CSV()
	runner.ResetCache()

	if plain != traced {
		t.Fatalf("tracing changed the report CSV:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	if len(made) != 1 {
		t.Fatalf("observer factory called %d times, want 1", len(made))
	}

	data, err := os.ReadFile(filepath.Join(dir, "table4.json"))
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}

	series, err := os.ReadFile(filepath.Join(dir, "table4-series.csv"))
	if err != nil {
		t.Fatalf("series not written: %v", err)
	}
	if len(series) == 0 {
		t.Fatal("series is empty")
	}
}

// TestObsCacheHitsTraceNothing: an experiment served entirely from the memo
// cache flushes only empty recorders, so the observer writes no files and
// the CSV is still identical.
func TestObsCacheHitsTraceNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver")
	}
	runner.ResetCache()
	warm := Table4(obsTestSettings()).CSV() // populate the cache

	dir := t.TempDir()
	s := obsTestSettings()
	tracePath := filepath.Join(dir, "table4.json")
	s.Obs = func(label string) *obs.Observer {
		return obs.NewObserver(tracePath, "", 1, true)
	}
	cached := Table4(s).CSV()
	runner.ResetCache()

	if warm != cached {
		t.Fatal("cached pass changed the CSV")
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("cache-hit experiment wrote a trace (err=%v)", err)
	}
}
