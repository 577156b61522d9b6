package runner

import "sync"

// FailureLog accumulates Failures across Execute batches. A multi-figure
// experiments run hands one log to every driver (via
// experiments.Settings.Failures); each driver's batch appends its failures,
// and the command reports them all at the end instead of dying at the first.
type FailureLog struct {
	mu    sync.Mutex
	fails []Failure
	notes []Failure
}

// Add appends a report's failures and durability notes.
func (l *FailureLog) Add(rep *Report) {
	if rep.OK() && len(rep.Notes) == 0 {
		return
	}
	l.mu.Lock()
	l.fails = append(l.fails, rep.Failures...)
	l.notes = append(l.notes, rep.Notes...)
	l.mu.Unlock()
}

// All returns the accumulated failures in insertion order.
func (l *FailureLog) All() []Failure {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Failure(nil), l.fails...)
}

// Notes returns the accumulated durability notes in insertion order:
// corrupt store entries that were quarantined and re-executed, and
// store writes that exhausted their retry budget. They never fail a run,
// but a command should surface them — each one is a disk misbehaving.
func (l *FailureLog) Notes() []Failure {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Failure(nil), l.notes...)
}
