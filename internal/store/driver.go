// Package store is the persistent, content-addressed result store behind
// the sweep service and the runner's restart-surviving memo cache. Entries
// are opaque byte payloads keyed by the runner's memo fingerprint; the
// store wraps every payload in a checksummed envelope so a torn write — a
// crash, a power loss, an injected short write — is detected on read,
// quarantined, and re-executed rather than trusted (DESIGN.md §9).
//
// Persistence backends are drivers, not rewrites: the Driver interface
// carries the primitive operations and the filesystem and in-memory
// drivers register themselves by URL scheme, in the style of NetApp
// Trident's storage_drivers layer. A SQLite or remote backend slots in by
// registering a new scheme; everything above the interface (envelope,
// checksum, quarantine, retry/backoff, stats) is shared.
//
// The store lives strictly outside the simulated world: it may read the
// wall clock (retry backoff sleeps) but must never import a machine
// package — results flow through it as opaque bytes, so storage can never
// influence what a simulation computes. tridentlint's layering table
// enforces that direction.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Driver is one persistence backend. Implementations must be safe for
// concurrent use by multiple goroutines; the filesystem driver is
// additionally safe for concurrent use by multiple processes sharing a
// directory (atomic publishes via unique temp names + rename).
//
// Drivers store payloads verbatim — the checksummed envelope is applied by
// Store above the interface, so every backend gets torn-write detection
// for free.
type Driver interface {
	// Name identifies the backend ("fs", "mem") in stats and errors.
	Name() string
	// Put durably publishes data under key, atomically: after a crash at
	// any point, a reader sees either the complete previous entry, the
	// complete new entry, or (detectably) a torn one — never a silent mix.
	Put(key string, data []byte) error
	// Get returns the entry bytes, ErrNotFound if none exists.
	Get(key string) ([]byte, error)
	// Has reports whether an entry exists under key without reading it —
	// a presence probe for progress accounting. A torn entry counts as
	// present until a Get quarantines it.
	Has(key string) bool
	// Quarantine moves a corrupt entry aside so it is never read again but
	// remains available for post-mortem inspection. Quarantining a missing
	// key is not an error (two readers may race to quarantine).
	Quarantine(key string) error
	// Keys lists the stored keys in sorted order (quarantined entries and
	// in-flight temporaries excluded).
	Keys() ([]string, error)
	// Flush is a durability barrier: when it returns, every completed Put
	// has reached stable storage.
	Flush() error
	// Close releases the backend; the driver must not be used afterwards.
	Close() error
}

// Sentinel errors. Drivers wrap environment failures in ErrTransient when a
// retry could plausibly succeed (IO errors, ENOSPC); the Store's
// retry/backoff loop keys off it.
var (
	// ErrNotFound: no entry under the key.
	ErrNotFound = errors.New("store: entry not found")
	// ErrCorrupt: the entry failed envelope verification (torn or bit-rotted)
	// and has been quarantined.
	ErrCorrupt = errors.New("store: entry corrupt (quarantined)")
	// ErrTransient marks environment failures worth retrying.
	ErrTransient = errors.New("store: transient IO failure")
)

// FaultInjector lets tests and chaos runs perturb a driver's physical IO.
// chaos.IOInjector implements it (by shape — store must not import the
// machine's chaos package, so the interface lives here).
type FaultInjector interface {
	// WriteFault is consulted once per physical write of n bytes: keep < n
	// truncates the write to a prefix that still reports success (a torn
	// write), err fails it outright (ENOSPC-style).
	WriteFault(n int) (keep int, err error)
	// ReadFault is consulted once per physical read; err fails it.
	ReadFault() error
}

// driverFactories maps URL schemes to driver constructors. Register at
// init time; Open resolves "scheme:rest".
var driverFactories = map[string]func(rest string) (Driver, error){}

// RegisterDriver installs a backend constructor under a URL scheme. It
// panics on duplicates — schemes are wired at init time, so a collision is
// a programming error.
func RegisterDriver(scheme string, factory func(rest string) (Driver, error)) {
	if _, dup := driverFactories[scheme]; dup {
		panic(fmt.Sprintf("store: duplicate driver scheme %q", scheme))
	}
	driverFactories[scheme] = factory
}

// Schemes returns the registered driver schemes, sorted.
func Schemes() []string {
	out := make([]string, 0, len(driverFactories))
	for s := range driverFactories {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// OpenDriver resolves a backend URL of the form "scheme:rest" — e.g.
// "fs:/var/lib/trident/store" or "mem:" — to a live driver.
func OpenDriver(url string) (Driver, error) {
	scheme, rest, ok := strings.Cut(url, ":")
	if !ok || scheme == "" {
		return nil, fmt.Errorf("store: %q is not a backend URL (want scheme:rest, schemes: %s)",
			url, strings.Join(Schemes(), ", "))
	}
	factory, ok := driverFactories[scheme]
	if !ok {
		return nil, fmt.Errorf("store: unknown backend scheme %q (have: %s)",
			scheme, strings.Join(Schemes(), ", "))
	}
	return factory(rest)
}

// validKey reports whether key is safe for every backend (filesystem
// drivers embed it in file names). The runner's fingerprints — lowercase
// hex — always pass.
func validKey(key string) bool {
	if key == "" || len(key) > 128 || key[0] == '.' {
		return false
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
