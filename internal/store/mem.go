package store

import (
	"fmt"
	"sort"
	"sync"
)

// Mem is the in-memory driver: a mutex-guarded map. It exists for tests,
// for benchmarks that want store semantics without disk IO, and as the
// simplest possible reference implementation of the Driver contract.
// Entries die with the process — it trades every durability guarantee for
// speed, which is exactly what a unit test wants and a service does not.
type Mem struct {
	mu      sync.RWMutex
	entries map[string][]byte
}

// NewMem returns an empty in-memory store driver.
func NewMem() *Mem {
	return &Mem{entries: map[string][]byte{}}
}

// Name implements Driver.
func (m *Mem) Name() string { return "mem" }

// Put implements Driver.
func (m *Mem) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	m.mu.Lock()
	m.entries[key] = append([]byte(nil), data...)
	m.mu.Unlock()
	return nil
}

// Get implements Driver.
func (m *Mem) Get(key string) ([]byte, error) {
	if !validKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	m.mu.RLock()
	data, ok := m.entries[key]
	m.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), data...), nil
}

// Has implements Driver.
func (m *Mem) Has(key string) bool {
	m.mu.RLock()
	_, ok := m.entries[key]
	m.mu.RUnlock()
	return ok
}

// Quarantine implements Driver. A memory entry would not outlive the
// process for a post-mortem anyway, so it is simply dropped.
func (m *Mem) Quarantine(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	m.mu.Lock()
	delete(m.entries, key)
	m.mu.Unlock()
	return nil
}

// Keys implements Driver.
func (m *Mem) Keys() ([]string, error) {
	m.mu.RLock()
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	m.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Flush implements Driver (memory is as durable as it gets).
func (m *Mem) Flush() error { return nil }

// Close implements Driver.
func (m *Mem) Close() error { return nil }
