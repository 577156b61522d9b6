package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func load(t *testing.T, dir string) *Module {
	t.Helper()
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	return m
}

var self struct {
	once sync.Once
	m    *Module
	err  error
}

// selfModule loads the repo's own module once for every test that scans
// it (TestSelfClean, TestNoTestOnlyCode).
func selfModule(t *testing.T) *Module {
	t.Helper()
	self.once.Do(func() { self.m, self.err = Load(filepath.Join("..", "..")) })
	if self.err != nil {
		t.Fatalf("Load: %v", self.err)
	}
	if self.m.Path != "repro" {
		t.Fatalf("loaded module %q, want repro", self.m.Path)
	}
	return self.m
}

// want is one expected golden finding, matched by check, file suffix and a
// message fragment.
type want struct {
	check, file, frag string
}

// TestBadFixtureFindings pins the seeded-violation module: every check
// must fire on its violation, the malformed suppression must be reported,
// and nothing else may appear. Every registered check must own at least
// one seed, so the per-check negative gate has something to fire on.
func TestBadFixtureFindings(t *testing.T) {
	m := load(t, filepath.Join("testdata", "bad"))
	got := Run(m, Checks())
	wants := []want{
		{"layering", "internal/kernel/kernel.go", "internal/kernel must not import math/rand"},
		{"ignore", "internal/kernel/kernel.go", "malformed //lint:ignore"},
		{"layering", "internal/kernel/kernel.go", "internal/kernel must not use time.Sleep"},
		{"layering", "internal/obs/obs.go", "internal/obs must not import internal/sim"},
		{"layering", "internal/sim/sim.go", "internal/sim must not import internal/runner"},
		{"layering", "internal/store/fs.go", "internal/store must not import internal/sim"},
		{"layering", "internal/service/service.go", "internal/service must not import internal/experiments"},
		{"layering", "internal/runner/runner.go", "internal/runner.fingerprintKey must not use log/slog.Info"},
		{"layering", "internal/runner/runner.go", "internal/runner.dumpKey must not use fmt.Printf"},
		{"layering", "internal/sim/sim.go", "internal/sim must not use time.Now"},
		{"layering", "internal/sim/sim.go", "internal/sim must not use os.Getenv"},
		{"detertaint", "internal/sim/sim.go", "map iteration order reaches fmt.Println"},
		{"detertaint", "internal/sim/sim.go", "map iteration order reaches io.Writer output (io.Writer).Write"},
		{"detertaint", "internal/sim/sim.go", "map iteration order reaches a float += accumulator"},
		// Interprocedural flows. The first is the acceptance proof: a
		// wall-clock read two call hops away from the Result assignment,
		// outside the simulated world the layering fence covers.
		{"detertaint", "internal/experiments/experiments.go", "time.Now (via internal/runner.hostStamp) (via internal/runner.StampWrapper) reaches sim.Result field Stamp"},
		{"detertaint", "internal/experiments/experiments.go", "os.Getenv reaches stats.Table.AddRow (report cell) via internal/experiments.emit (argument 1)"},
		{"detertaint", "internal/experiments/experiments.go", "map iteration order reaches stats.Table.AddRow (report cell)"},
		{"errdrop", "internal/experiments/experiments.go", "error from internal/store.Seal discarded (bare call statement)"},
		{"errdrop", "internal/store/pub.go", "(*os.File).Write error discarded (bare call statement) inside internal/store.Publish"},
		{"errdrop", "internal/store/pub.go", "(*os.File).Sync error discarded (bare call statement)"},
		{"errdrop", "internal/store/pub.go", "(*os.File).Close error discarded (deferred without capture)"},
		{"errdrop", "internal/store/pub.go", "os.Rename error assigned to _"},
		{"lockflow", "internal/service/locks.go", "h.mu held across os.WriteFile"},
		{"lockflow", "internal/service/locks.go", "h.mu held across channel receive"},
		{"lockflow", "internal/service/locks.go", "locks h.mu, already held"},
	}
	if len(got) != len(wants) {
		t.Errorf("got %d findings, want %d:", len(got), len(wants))
		for _, f := range got {
			t.Logf("  %s", f)
		}
	}
	for _, w := range wants {
		found := false
		for _, f := range got {
			if f.Check == w.check &&
				strings.HasSuffix(filepath.ToSlash(f.File), w.file) &&
				strings.Contains(f.Message, w.frag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing finding: [%s] %s ~ %q", w.check, w.file, w.frag)
		}
	}
	for _, f := range got {
		if f.Line <= 0 || f.Col <= 0 {
			t.Errorf("finding without position: %+v", f)
		}
	}
	for _, c := range Checks() {
		if !slices.ContainsFunc(wants, func(w want) bool { return w.check == c.Name }) {
			t.Errorf("check %s has no seeded violation in testdata/bad", c.Name)
		}
	}
}

// TestGoodFixtureClean pins the clean module: sorted emission, duration
// constants, xrand's math/rand import, a pure memo-key function and a reasoned
// suppression must all pass without a sound.
func TestGoodFixtureClean(t *testing.T) {
	m := load(t, filepath.Join("testdata", "good"))
	if got := Run(m, Checks()); len(got) != 0 {
		for _, f := range got {
			t.Errorf("unexpected finding on clean fixture: %s", f)
		}
	}
}

// TestIgnoreSuppressesOnlyWithReason proves the suppression actually
// swallowed a live finding in the good fixture (rather than the check not
// firing at all): running the layering check raw sees the violation, Run
// with directives does not. The bad fixture's reasonless directive is the
// negative half, pinned in TestBadFixtureFindings.
func TestIgnoreSuppressesOnlyWithReason(t *testing.T) {
	m := load(t, filepath.Join("testdata", "good"))
	raw := checkLayering(m)
	if len(raw) != 1 || !strings.Contains(raw[0].Message, "time.Now") {
		t.Fatalf("raw layering check on good fixture = %v, want exactly the suppressed time.Now", raw)
	}
	if got := Run(m, Checks()); len(got) != 0 {
		t.Errorf("reasoned //lint:ignore did not suppress: %v", got)
	}
}

// TestJSONRoundTrip pins the -json schema: encode → decode must be
// lossless, and an empty finding set must encode as [] (not null).
func TestJSONRoundTrip(t *testing.T) {
	m := load(t, filepath.Join("testdata", "bad"))
	fs := Run(m, Checks())
	var buf bytes.Buffer
	if err := FindingsJSON(&buf, fs); err != nil {
		t.Fatal(err)
	}
	var back []Finding
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("decoding own output: %v", err)
	}
	if !reflect.DeepEqual(fs, back) {
		t.Errorf("round trip lost data:\n in: %+v\nout: %+v", fs, back)
	}

	buf.Reset()
	if err := FindingsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(buf.String()); s != "[]" {
		t.Errorf("empty findings encode as %q, want []", s)
	}
}

// TestSelfClean is the in-test twin of the CI self-gate: the repo's own
// module must lint clean. If this fails, run `go run ./cmd/tridentlint
// ./...` for the findings and fix (or suppress with a reason) each one.
func TestSelfClean(t *testing.T) {
	m := selfModule(t)
	if got := Run(m, Checks()); len(got) != 0 {
		for _, f := range got {
			t.Errorf("repo is not lint-clean: %s", f)
		}
	}
}

// TestCheckRegistry pins the contract checks by name so a dropped
// registration cannot go unnoticed.
func TestCheckRegistry(t *testing.T) {
	want := []string{"layering", "detertaint", "errdrop", "lockflow"}
	var got []string
	for _, c := range Checks() {
		got = append(got, c.Name)
		if c.Doc == "" || c.Run == nil {
			t.Errorf("check %s missing doc or run func", c.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry = %v, want %v", got, want)
	}
}
