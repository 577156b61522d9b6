// Package service is the clean twin of the sweep service: it may import
// the engine below it (runner) and the storage backend — the allowed
// downward edges — and its idioms are the blessed ones: IO outside the
// critical section, and map iteration sorted before it reaches a report
// cell.
package service

import (
	"os"
	"sort"
	"sync"

	"good/internal/runner"
	"good/internal/stats"
	"good/internal/store"
)

var (
	_ = runner.Elapsed
	_ store.Driver
)

// Hub is a mutex-guarded state holder whose methods use the lock right.
type Hub struct {
	mu    sync.Mutex
	state []byte
}

// Save snapshots under the lock and performs the file IO after releasing
// it — the idiom lockflow enforces.
func (h *Hub) Save(path string) error {
	h.mu.Lock()
	snap := append([]byte(nil), h.state...)
	h.mu.Unlock()
	return os.WriteFile(path, snap, 0o644)
}

// Render emits map contents in sorted order: the sort kills the
// iteration-order taint before any value reaches a report cell, so
// detertaint stays quiet.
func Render(t *stats.Table, m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.AddRow(k)
	}
}
