package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workload"
)

func fsStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open("fs:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	return st, dir
}

// TestStoreKillAndResume is the resume contract end to end: a run that
// completes one of two experiments before being cancelled (standing in for
// a kill -9) publishes the finished one to the store; a fresh "process"
// (cache reset) sharing the store reloads it, computes only the other, and produces a CSV
// byte-identical to an uninterrupted run.
func TestStoreKillAndResume(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfgA := tinyConfig(t)
	cfgB := tinyConfig(t)
	cfgB.Seed = 5

	table := func() *stats.Table { return stats.NewTable("t", "workload", "policy", "cpa", "walk") }
	build := func(tab *stats.Table) []Job {
		mk := func(cfg sim.Config) Job {
			return Sim(cfg, func(r *sim.Result) {
				tab.AddRow(r.Workload, r.Policy, r.Perf.CyclesPerAccess, r.Perf.WalkCycleFraction)
			})
		}
		return []Job{mk(cfgA), mk(cfgB)}
	}

	base := table()
	Execute(build(base), Options{Parallelism: 1}).MustOK()

	// The "killed" run: job A completes and is published to the store, the
	// middle job cancels the batch, and B is skipped.
	st, _ := fsStore(t)
	ResetCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := table()
	jobs := build(killed)
	jobs = []Job{jobs[0], Func(func() any { cancel(); return nil }, nil), jobs[1]}
	if rep := Execute(jobs, Options{Parallelism: 1, Context: ctx, Store: st}); rep.OK() {
		t.Fatal("the killed run must report the unfinished job")
	}

	// The resumed "process": fresh memo cache, same store backend.
	ResetCache()
	resumedTab := table()
	Execute(build(resumedTab), Options{Parallelism: 1, Store: st}).MustOK()
	cs := Cache()
	if cs.StoreHits != 1 || cs.Misses != 1 {
		t.Fatalf("resume ran %d sims and reloaded %d from the store, want 1 and 1", cs.Misses, cs.StoreHits)
	}
	if resumedTab.CSV() != base.CSV() {
		t.Fatalf("store-resumed CSV differs from uninterrupted run:\n--- base\n%s--- resumed\n%s",
			base.CSV(), resumedTab.CSV())
	}
	if s := st.Stats(); s.Puts != 2 || s.Hits != 1 {
		t.Fatalf("store stats = %+v, want 2 puts (A then B) and 1 hit", s)
	}
}

// TestStoreCorruptEntryQuarantinedAndRerun: a store entry torn by a crash
// must be caught by the checksum, quarantined, recomputed to a
// byte-identical result, and surfaced as a durability note — never trusted,
// never fatal.
func TestStoreCorruptEntryQuarantinedAndRerun(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	st, dir := fsStore(t)

	var clean *sim.Result
	Execute([]Job{Sim(cfg, func(r *sim.Result) { clean = r })}, Options{Store: st}).MustOK()

	// Tear the published entry as a mid-write power loss would.
	fp := Fingerprint(cfg)
	path := filepath.Join(dir, fp+".entry")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	ResetCache()
	var redone *sim.Result
	rep := Execute([]Job{Sim(cfg, func(r *sim.Result) { redone = r })}, Options{Store: st})
	rep.MustOK()
	if len(rep.Notes) != 1 || rep.Notes[0].Phase != "durability" {
		t.Fatalf("Notes = %+v, want one durability note for the quarantined entry", rep.Notes)
	}
	if cs := Cache(); cs.StoreHits != 0 || cs.Misses != 1 {
		t.Fatalf("corrupt entry was served: %+v", cs)
	}
	cleanJSON, _ := json.Marshal(clean)
	redoneJSON, _ := json.Marshal(redone)
	if string(cleanJSON) != string(redoneJSON) {
		t.Fatal("recomputed result differs from the original")
	}
	if s := st.Stats(); s.Corrupt != 1 {
		t.Fatalf("store stats = %+v, want exactly one quarantined entry", s)
	}
	// The recompute republished a good entry: a third process hits it.
	ResetCache()
	Execute([]Job{Sim(cfg, nil)}, Options{Store: st}).MustOK()
	if cs := Cache(); cs.StoreHits != 1 {
		t.Fatalf("republished entry not served: %+v", cs)
	}
}

// TestStoreChaosFaultsNeverChangeResults: under seed-driven injected store
// IO faults (torn writes, ENOSPC, read errors) every job must still deliver
// the byte-identical result — faults surface as deterministic retries and
// durability notes only.
func TestStoreChaosFaultsNeverChangeResults(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfgs := make([]sim.Config, 4)
	for i := range cfgs {
		cfgs[i] = tinyConfig(t)
		cfgs[i].Seed = uint64(3 + i)
	}
	table := func() *stats.Table { return stats.NewTable("t", "workload", "policy", "cpa") }
	build := func(tab *stats.Table) []Job {
		jobs := make([]Job, len(cfgs))
		for i, cfg := range cfgs {
			jobs[i] = Sim(cfg, func(r *sim.Result) { tab.AddRow(r.Workload, r.Policy, r.Perf.CyclesPerAccess) })
		}
		return jobs
	}
	base := table()
	Execute(build(base), Options{Parallelism: 1}).MustOK()

	inj := chaos.NewIO(chaos.IOConfig{Seed: 9, ShortWriteRate: 0.3, WriteErrRate: 0.3, ReadErrRate: 0.3})
	fsd, err := store.NewFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(fsd, store.Retry{Attempts: 3, Base: time.Microsecond, Cap: 10 * time.Microsecond})

	// Two passes through the faulty store: the first computes and publishes
	// (some writes torn or refused), the second reads back whatever
	// survived (some reads fail, some entries quarantined, the rest hit).
	for pass := 0; pass < 2; pass++ {
		ResetCache()
		tab := table()
		rep := Execute(build(tab), Options{Parallelism: 1, Store: st})
		rep.MustOK()
		if tab.CSV() != base.CSV() {
			t.Fatalf("pass %d: chaos store faults changed the report:\n--- base\n%s--- got\n%s",
				pass, base.CSV(), tab.CSV())
		}
	}
	if inj.S.Total() == 0 {
		t.Fatal("no store faults fired; the test exercises nothing")
	}
}

// TestCheckpointCorruptEntryNoteAndRerun pins the resume-durability
// contract on the checkpoint directory (an fs: store): a garbled entry must
// be skipped and re-executed with a structured durability note — not
// resumed wrong, not fatal to the whole resume.
func TestCheckpointCorruptEntryNoteAndRerun(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := tinyConfig(t)
	st, dir := fsStore(t)
	Execute([]Job{Sim(cfg, nil)}, Options{Store: st}).MustOK()
	path := filepath.Join(dir, Fingerprint(cfg)+".entry")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint entry not published: %v", err)
	}
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetCache()
	rep := Execute([]Job{Sim(cfg, nil)}, Options{Store: st})
	rep.MustOK()
	if cs := Cache(); cs.StoreHits != 0 || cs.Misses != 1 {
		t.Fatalf("corrupt checkpoint entry was resumed: %+v", cs)
	}
	if len(rep.Notes) != 1 {
		t.Fatalf("Notes = %+v, want exactly one for the corrupt entry", rep.Notes)
	}
	n := rep.Notes[0]
	if n.Phase != "durability" || n.Err == nil || !strings.Contains(n.Err.Error(), "corrupt") {
		t.Fatalf("note = %+v, want a durability note naming the corrupt entry", n)
	}
	// The failure log files notes separately from failures.
	var fl FailureLog
	fl.Add(rep)
	if len(fl.fails) != 0 || len(fl.Notes()) != 1 {
		t.Fatalf("FailureLog: %d failures, %d notes, want 0 and 1", len(fl.fails), len(fl.Notes()))
	}
}

// TestStoreWriteExhaustionDegrades: a store whose writes always fail must
// not fail jobs — the results deliver, each with a durability note.
func TestStoreWriteExhaustionDegrades(t *testing.T) {
	ResetCache()
	defer ResetCache()
	inj := chaos.NewIO(chaos.IOConfig{Seed: 2, WriteErrRate: 1.0})
	fsd, err := store.NewFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(fsd, store.Retry{Attempts: 2, Base: time.Microsecond, Cap: time.Microsecond})
	var got *sim.Result
	rep := Execute([]Job{Sim(tinyConfig(t), func(r *sim.Result) { got = r })}, Options{Store: st})
	rep.MustOK()
	if got == nil {
		t.Fatal("job did not deliver")
	}
	if len(rep.Notes) != 1 || !strings.Contains(rep.Notes[0].Err.Error(), "durability lost") {
		t.Fatalf("Notes = %+v, want one degraded-write note", rep.Notes)
	}
	if s := st.Stats(); s.PutErrors != 1 {
		t.Fatalf("store stats = %+v, want one exhausted put", s)
	}
}

// TestFingerprintStability: the fingerprint must ignore the documented
// non-identity fields and distinguish everything else.
func TestFingerprintStability(t *testing.T) {
	cfg := tinyConfig(t)
	fp := Fingerprint(cfg)
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex", fp)
	}
	obsCfg := cfg
	obsCfg.Obs = &obs.Run{Name: "traced"} // memo-key-excluded recorder
	if Fingerprint(obsCfg) != fp {
		t.Fatal("an observability recorder changed the fingerprint")
	}
	seeded := cfg
	seeded.Seed++
	if Fingerprint(seeded) == fp {
		t.Fatal("distinct configs share a fingerprint")
	}
}

// TestFingerprintGolden pins the fingerprint of one fixed config, and
// checks it against the definition fingerprintKey must keep: the hex
// SHA-256 of fmt.Sprintf("%#v", keyOf(cfg)). Every fs: store names its
// entries by fingerprint, so a rendering change, however faithful, would
// leave every existing store cold.
func TestFingerprintGolden(t *testing.T) {
	const golden = "66007ff61b0ca0dac4d81b870c8a2247d7c6b0b985272ad410ab8b88a8b597aa"
	spec, ok := workload.ByName("Redis")
	if !ok {
		t.Fatal("no Redis workload")
	}
	cfg := sim.Config{Workload: spec, Policy: sim.PolicyTrident, MemGB: 16, Scale: 0.25,
		Accesses: 100_000, Seed: 7, Fragment: true}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", keyOf(cfg))))
	if def := hex.EncodeToString(sum[:]); def != golden {
		t.Errorf("hex(sha256(%%#v of the key)) = %s, want %s: the key's rendering changed", def, golden)
	}
	if fp := Fingerprint(cfg); fp != golden {
		t.Errorf("Fingerprint = %s, want %s", fp, golden)
	}
}
