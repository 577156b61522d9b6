package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

// noSleep replaces the backoff sleep so retry tests run instantly while
// still recording the pinned schedule.
func noSleep(s *Store) *[]time.Duration {
	var delays []time.Duration
	s.sleep = func(d time.Duration) { delays = append(delays, d) }
	return &delays
}

func TestRoundTripBothDrivers(t *testing.T) {
	for _, url := range []string{"mem:", "fs:" + t.TempDir()} {
		s, err := Open(url)
		if err != nil {
			t.Fatalf("Open(%s): %v", url, err)
		}
		payload := []byte(`{"cycles":3.14}`)
		if err := s.Put("abc123", payload); err != nil {
			t.Fatalf("%s Put: %v", url, err)
		}
		got, err := s.Get("abc123")
		if err != nil || string(got) != string(payload) {
			t.Fatalf("%s Get = %q, %v; want payload back", url, got, err)
		}
		if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s Get(missing) = %v, want ErrNotFound", url, err)
		}
		keys, err := s.Keys()
		if err != nil || len(keys) != 1 || keys[0] != "abc123" {
			t.Fatalf("%s Keys = %v, %v", url, keys, err)
		}
		// Has probes presence without counting as a Get.
		if !s.Has("abc123") || s.Has("missing") {
			t.Fatalf("%s Has(abc123)=%v Has(missing)=%v, want true and false",
				url, s.Has("abc123"), s.Has("missing"))
		}
		st := s.Stats()
		if st.Puts != 1 || st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("%s stats = %+v", url, st)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s Close: %v", url, err)
		}
	}
}

func TestOpenRejectsBadURLs(t *testing.T) {
	for _, url := range []string{"", "fs", "bogus:x", "mem:extra", "fs:"} {
		if _, err := Open(url); err == nil {
			t.Errorf("Open(%q) succeeded, want error", url)
		}
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := New(NewMem(), Retry{})
	for _, key := range []string{"", ".hidden", "a/b", "x y", strings.Repeat("k", 200)} {
		if err := s.Put(key, []byte("v")); err == nil {
			t.Errorf("Put(%q) succeeded, want invalid-key error", key)
		}
	}
}

// TestCorruptEntryQuarantined: a torn entry must fail verification, move to
// quarantine, and leave the slot writable again.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open("fs:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("deadbeef", []byte("full payload")); err != nil {
		t.Fatal(err)
	}
	// Tear the published entry the way a mid-write crash would: truncate.
	path := filepath.Join(dir, "deadbeef.entry")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get("deadbeef"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(torn) = %v, want ErrCorrupt", err)
	}
	if _, err := s.Get("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine = %v, want ErrNotFound", err)
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (%v), want 1", len(q), err)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats.Corrupt = %d, want 1", st.Corrupt)
	}
	// The slot is reusable: a fresh Put + Get round-trips.
	if err := s.Put("deadbeef", []byte("recomputed")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("deadbeef"); err != nil || string(got) != "recomputed" {
		t.Fatalf("Get after re-Put = %q, %v", got, err)
	}
}

// TestChecksumCatchesEveryTornWrite is the crash-safety core: publish many
// entries through a fault injector that tears a third of the writes, then
// "restart" (fresh driver on the same directory) and verify that every
// surviving entry is either byte-perfect or detected as corrupt — a wrong
// payload must never verify.
func TestChecksumCatchesEveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.NewIO(chaos.IOConfig{Seed: 11, ShortWriteRate: 0.35})
	fsd, err := NewFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fsd, Retry{Attempts: 1})
	payloads := map[string]string{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("cfg%04d", i)
		payloads[key] = fmt.Sprintf(`{"config":%d,"result":"%s"}`, i, strings.Repeat("x", i*7))
		if err := s.Put(key, []byte(payloads[key])); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	if inj.S.ShortWrites == 0 {
		t.Fatal("no short writes fired; the test exercises nothing")
	}

	// Reopen without faults, as a restarted process would.
	reopened, err := Open("fs:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("cfg%04d", i)
		got, err := reopened.Get(key)
		switch {
		case err == nil:
			if string(got) != payloads[key] {
				t.Fatalf("entry %s verified but differs: %q != %q", key, got, payloads[key])
			}
		case errors.Is(err, ErrCorrupt):
			torn++
		default:
			t.Fatalf("Get %s: %v", key, err)
		}
	}
	if torn != int(inj.S.ShortWrites) {
		t.Fatalf("checksum caught %d torn entries, injector tore %d", torn, inj.S.ShortWrites)
	}
}

// TestRetryPinnedBackoff: transient write failures must be retried on the
// exact pinned schedule (base << attempt, capped) and eventually succeed.
func TestRetryPinnedBackoff(t *testing.T) {
	inj := chaos.NewIO(chaos.IOConfig{Seed: 3, WriteErrRate: 0.5})
	fsd, err := NewFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fsd, Retry{Attempts: 8, Base: 2 * time.Millisecond, Cap: 5 * time.Millisecond})
	delays := noSleep(s)
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond}
	for i := 0; i < 40; i++ {
		before := len(*delays)
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatalf("Put with retries: %v", err)
		}
		for j, d := range (*delays)[before:] {
			if exp := want[min(j, len(want)-1)]; d != exp {
				t.Fatalf("retry %d of op %d slept %v, want %v (pinned schedule %v)", j, i, d, exp, want)
			}
		}
	}
	if len(*delays) == 0 {
		t.Fatal("no retries fired; the test exercises nothing")
	}
	if st := s.Stats(); st.Retries == 0 || st.PutErrors != 0 {
		t.Fatalf("stats = %+v, want retries > 0 and no exhausted puts", st)
	}
}

// TestRetryExhaustionSurfacesTransient: when the budget runs out, the error
// still wraps ErrTransient so callers can classify it.
func TestRetryExhaustionSurfacesTransient(t *testing.T) {
	inj := chaos.NewIO(chaos.IOConfig{Seed: 5, WriteErrRate: 1.0})
	fsd, err := NewFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fsd, Retry{Attempts: 3, Base: time.Millisecond, Cap: time.Millisecond})
	noSleep(s)
	err = s.Put("doomed", []byte("v"))
	if !errors.Is(err, ErrTransient) || !errors.Is(err, chaos.ErrInjectedWrite) {
		t.Fatalf("exhausted Put error = %v, want ErrTransient wrapping the injected cause", err)
	}
	if st := s.Stats(); st.PutErrors != 1 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want PutErrors 1, Retries 2", st)
	}
}

// TestMemQuarantine covers the in-memory driver's quarantine bookkeeping.
func TestMemQuarantine(t *testing.T) {
	m := NewMem()
	s := New(m, Retry{})
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the sealed bytes in place.
	m.mu.Lock()
	m.entries["k1"] = m.entries["k1"][:len(m.entries["k1"])-1]
	m.mu.Unlock()
	if _, err := s.Get("k1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(corrupt mem entry) = %v, want ErrCorrupt", err)
	}
	if m.Has("k1") {
		t.Fatal("corrupt entry still stored after quarantine")
	}
	if keys, _ := s.Keys(); len(keys) != 0 {
		t.Fatalf("Keys after quarantine = %v, want empty", keys)
	}
}

// TestKeysExcludesInFlightAndQuarantine: temp files mid-publish and
// quarantined entries must not appear as stored keys.
func TestKeysExcludesInFlightAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open("fs:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("live", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// A stray temp file, as a crash mid-publish would leave.
	if err := os.WriteFile(filepath.Join(dir, "other.entry.tmp-1-1"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "live" {
		t.Fatalf("Keys = %v, %v; want exactly [live]", keys, err)
	}
}
