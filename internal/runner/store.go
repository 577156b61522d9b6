package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/store"
)

// The persistent result store (internal/store) is the memo cache's durable
// tier: in-process map → shared durable store. Entries are keyed by the
// same canonical fingerprint the memo cache uses, so a restarted process —
// or a different process sharing the store — reloads exactly the
// configurations it already computed, byte-identically, and any config
// change falls through to a fresh computation. Store failures are never result failures: a corrupt entry is
// quarantined and recomputed, an exhausted retry budget degrades to a
// Report.Notes record (durability lost, correctness kept).

// fingerprintKey renders a cacheKey to its canonical content address: the
// hex SHA-256 of the key's %#v rendering. keyOf leaves no live pointer in
// the key, so the rendering — and therefore the fingerprint — is stable
// across processes and machines. fmt.Appendf renders exactly the bytes
// fmt.Sprintf returns, here into a stack buffer that fits the ~1.2 KB
// rendering, so no per-key string is built (a longer one grows past it).
func fingerprintKey(key cacheKey) string {
	var buf [2048]byte
	sum := sha256.Sum256(fmt.Appendf(buf[:0], "%#v", key))
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// Fingerprint returns cfg's canonical memo fingerprint — the key under
// which the persistent result store addresses its result. Configs that
// differ only in the field keyOf clears (Obs) share a fingerprint.
func Fingerprint(cfg sim.Config) string {
	return fingerprintKey(keyOf(cfg))
}

// storeLoad fetches and decodes key's result from the persistent store.
// (nil, nil) means no usable entry (absent, or corrupt-and-quarantined —
// recompute); the error, when non-nil, is a note for the Report: the store
// misbehaved (corrupt entry, exhausted retries) but the run proceeds by
// recomputing.
func storeLoad(st *store.Store, fp string) (*sim.Result, error) {
	data, err := st.Get(fp)
	switch {
	case errors.Is(err, store.ErrNotFound):
		return nil, nil
	case err != nil:
		// Corrupt (already quarantined by the store) or transient budget
		// exhausted: either way the entry is not trusted and the config is
		// re-executed. Surface the event so operators see the disk misbehaving.
		return nil, fmt.Errorf("runner: store entry %s.. unusable, recomputing: %w", fp[:12], err)
	}
	var res sim.Result
	if uerr := json.Unmarshal(data, &res); uerr != nil {
		// The envelope verified but the payload does not decode — a writer
		// bug, not a torn write. Quarantine and recompute all the same. A
		// failed quarantine leaves the bad entry live for the next reader,
		// so it rides along in the surfaced note.
		if qerr := st.Driver().Quarantine(fp); qerr != nil {
			return nil, fmt.Errorf("runner: store entry %s.. verified but undecodable (quarantine also failed: %v), recomputing: %w", fp[:12], qerr, uerr)
		}
		return nil, fmt.Errorf("runner: store entry %s.. verified but undecodable, quarantined and recomputing: %w", fp[:12], uerr)
	}
	return &res, nil
}

// storeSave publishes res to the persistent store. Failure is a note, not an
// error: the result is already computed and delivered, only its durability
// beyond this process is lost.
func storeSave(st *store.Store, fp string, res *sim.Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("runner: store encode: %w", err)
	}
	if err := st.Put(fp, data); err != nil {
		return fmt.Errorf("runner: store write %s.. failed (result kept, durability lost): %w", fp[:12], err)
	}
	return nil
}
