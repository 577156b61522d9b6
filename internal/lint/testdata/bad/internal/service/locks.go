// locks.go seeds the lockflow violations: file IO and a channel receive
// under a held mutex, and a helper-method double-lock.
package service

import (
	"os"
	"sync"
)

// Hub is a mutex-guarded state holder whose methods misuse the lock.
type Hub struct {
	mu    sync.Mutex
	ch    chan int
	state string
}

// SaveUnderLock writes a file while holding mu: blocking IO in the
// critical section (lockflow).
func (h *Hub) SaveUnderLock(path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return os.WriteFile(path, []byte(h.state), 0o644)
}

// WaitUnderLock receives from the channel while holding mu: an idle
// sender wedges every other acquirer (lockflow).
func (h *Hub) WaitUnderLock() int {
	h.mu.Lock()
	v := <-h.ch
	h.mu.Unlock()
	return v
}

// size locks mu itself — fine in isolation.
func (h *Hub) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.state)
}

// Snapshot re-enters size with mu already held: self-deadlock through a
// helper method (lockflow).
func (h *Hub) Snapshot() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.size()
}
