package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// envelopeMagic heads every entry. The version bumps if the envelope
// format ever changes; a reader seeing an unknown version treats the entry
// as corrupt (quarantine + recompute) rather than guessing.
const envelopeMagic = "trident-store/1"

// Retry tunes the Store's transient-failure handling. The backoff schedule
// is pinned — delay(attempt) = min(Base << attempt, Cap), no jitter — so a
// seed-driven chaos fault schedule produces the exact same retry sequence
// on every run (DESIGN.md §9: retries must be deterministic, and must
// never surface as report differences).
type Retry struct {
	// Attempts is the total number of tries per operation (>= 1).
	Attempts int
	// Base is the delay before the second try; it doubles each retry.
	Base time.Duration
	// Cap bounds the per-retry delay.
	Cap time.Duration
}

// DefaultRetry is the schedule used by Open: 4 tries, 2ms → 4ms → 8ms.
var DefaultRetry = Retry{Attempts: 4, Base: 2 * time.Millisecond, Cap: 50 * time.Millisecond}

// Delay returns the pinned backoff before try attempt+1 (attempt counts
// from 0 for the first retry).
func (r Retry) Delay(attempt int) time.Duration {
	d := r.Base << attempt
	if d > r.Cap || d <= 0 { // <= 0: shift overflow
		d = r.Cap
	}
	return d
}

// Stats counts the store's cumulative activity. All fields are monotonic;
// read them via Stats() for a consistent snapshot.
type Stats struct {
	// Gets/Puts count logical operations (not retries).
	Gets, Puts uint64
	// Hits/Misses split Gets by outcome.
	Hits, Misses uint64
	// Corrupt counts entries that failed envelope verification and were
	// quarantined; each one is re-executed by the caller, never trusted.
	Corrupt uint64
	// Retries counts extra attempts after transient IO failures.
	Retries uint64
	// PutErrors/GetErrors count operations that exhausted their retry
	// budget (the caller degrades: recompute, or lose durability but not
	// correctness).
	PutErrors, GetErrors uint64
}

// Store wraps a Driver with the shared entry discipline: a checksummed
// envelope on every payload, quarantine of entries that fail verification,
// deterministic retry with capped exponential backoff on transient IO
// failures, and counters for observability. Safe for concurrent use.
type Store struct {
	d     Driver
	retry Retry
	sleep func(time.Duration) // test seam; time.Sleep in production
	log   atomic.Pointer[slog.Logger]

	gets, puts, hits, misses, corrupt, retries, putErrs, getErrs atomic.Uint64
}

// New wraps a driver with the given retry schedule. A zero Retry means
// DefaultRetry.
func New(d Driver, retry Retry) *Store {
	if retry.Attempts <= 0 {
		retry = DefaultRetry
	}
	return &Store{d: d, retry: retry, sleep: time.Sleep}
}

// Open resolves a backend URL ("fs:<dir>", "mem:") and wraps it with the
// default retry schedule.
func Open(url string) (*Store, error) {
	d, err := OpenDriver(url)
	if err != nil {
		return nil, err
	}
	return New(d, DefaultRetry), nil
}

// Driver exposes the wrapped backend.
func (s *Store) Driver() Driver { return s.d }

// SetLogger attaches a structured logger for the store's durability
// incidents: transient-failure retries, quarantined entries, exhausted
// retry budgets. nil detaches it. Logging is diagnostics only — outcomes
// (and the Stats counters) are identical with or without a logger.
// Safe to call concurrently with operations.
func (s *Store) SetLogger(log *slog.Logger) { s.log.Store(log) }

// logWith emits one record if a logger is attached.
func (s *Store) logWith(level slog.Level, msg string, args ...any) {
	if log := s.log.Load(); log != nil {
		log.Log(context.Background(), level, msg, args...)
	}
}

// seal wraps payload in the checksummed envelope:
//
//	trident-store/1 <payload-len> <sha256-hex>\n<payload>
//
// A short write truncates the payload (or the header itself); verification
// then fails on length or checksum, so no torn entry is ever trusted.
func seal(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %d %s\n", envelopeMagic, len(payload), hex.EncodeToString(sum[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// unseal verifies an envelope and returns the payload, or an error
// describing exactly how the entry is torn.
func unseal(data []byte) ([]byte, error) {
	nl := strings.IndexByte(string(data[:min(len(data), 128)]), '\n')
	if nl < 0 {
		return nil, errors.New("no envelope header")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != envelopeMagic {
		return nil, fmt.Errorf("bad envelope header %q", string(data[:nl]))
	}
	wantLen, err := strconv.Atoi(fields[1])
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("bad envelope length %q", fields[1])
	}
	payload := data[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("payload is %d bytes, envelope says %d (torn write)", len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[2] {
		return nil, errors.New("payload checksum mismatch")
	}
	return payload, nil
}

// withRetry runs op up to retry.Attempts times, sleeping the pinned
// backoff between transient failures. Non-transient errors return
// immediately. opName/key feed the retry diagnostics.
func (s *Store) withRetry(opName, key string, op func() error) error {
	var err error
	for attempt := 0; attempt < s.retry.Attempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			s.logWith(slog.LevelWarn, "store retrying after transient failure",
				"op", opName, "key", key, "attempt", attempt+1, "err", err)
			s.sleep(s.retry.Delay(attempt - 1))
		}
		if err = op(); err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
	}
	return err
}

// Put seals payload and durably publishes it under key, retrying transient
// IO failures on the pinned backoff schedule. An exhausted retry budget
// returns the last error (still wrapping ErrTransient); the caller keeps
// its computed result and only loses durability.
func (s *Store) Put(key string, payload []byte) error {
	s.puts.Add(1)
	sealed := seal(payload)
	err := s.withRetry("put", key, func() error { return s.d.Put(key, sealed) })
	if err != nil {
		s.putErrs.Add(1)
		s.logWith(slog.LevelError, "store put exhausted retry budget (durability lost, correctness kept)",
			"key", key, "err", err)
	}
	return err
}

// Get fetches and verifies key's payload. A missing entry returns
// ErrNotFound; a torn or bit-rotted entry is quarantined and returns
// ErrCorrupt (the caller must recompute, never trust); transient read
// failures are retried and, once exhausted, returned still wrapping
// ErrTransient.
func (s *Store) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	var data []byte
	err := s.withRetry("get", key, func() error {
		var e error
		data, e = s.d.Get(key)
		return e
	})
	switch {
	case errors.Is(err, ErrNotFound):
		s.misses.Add(1)
		return nil, ErrNotFound
	case err != nil:
		s.getErrs.Add(1)
		s.logWith(slog.LevelError, "store get exhausted retry budget", "key", key, "err", err)
		return nil, err
	}
	payload, verr := unseal(data)
	if verr != nil {
		s.corrupt.Add(1)
		s.logWith(slog.LevelWarn, "store entry quarantined (will recompute, never trust)",
			"key", key, "err", verr)
		if qerr := s.d.Quarantine(key); qerr != nil {
			return nil, fmt.Errorf("%w: %v (quarantine failed: %v)", ErrCorrupt, verr, qerr)
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, verr)
	}
	s.hits.Add(1)
	return payload, nil
}

// Has reports whether key has an entry, without reading or verifying it.
// It counts in no Stats field, so progress probes leave the hit ratio alone.
func (s *Store) Has(key string) bool { return s.d.Has(key) }

// Keys lists stored keys, sorted.
func (s *Store) Keys() ([]string, error) { return s.d.Keys() }

// Flush is the store's durability barrier (drain uses it before exit).
func (s *Store) Flush() error { return s.d.Flush() }

// Close flushes and releases the backend.
func (s *Store) Close() error {
	if err := s.d.Flush(); err != nil {
		s.d.Close()
		return err
	}
	return s.d.Close()
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Gets: s.gets.Load(), Puts: s.puts.Load(),
		Hits: s.hits.Load(), Misses: s.misses.Load(),
		Corrupt: s.corrupt.Load(), Retries: s.retries.Load(),
		PutErrors: s.putErrs.Load(), GetErrors: s.getErrs.Load(),
	}
}
