// Package obs is the simulator's observability layer: a deterministic
// span/event tracer, a per-batch time-series sampler, and a small metrics
// registry, all designed to observe a run without ever influencing it.
//
// Determinism contract: every timestamp in this package is *simulated*
// event time ("ticks"), derived purely from the access stream — completed
// access batches plus served faults — never from the wall clock. Two runs
// of the same sim.Config therefore produce identical traces and identical
// time series regardless of host load, worker count, or scheduling.
// Wall-clock time exists only outside the simulation (runner/cmd), where
// it stamps phase durations for perf.json; see DESIGN.md §7.
//
// Nil safety: the per-run recorder (*Run) is safe to use as a nil pointer.
// Every method nil-checks its receiver, so the simulator threads an
// untyped `cfg.Obs.Phase(...)` / `cfg.Obs.BatchDone(...)` call through its
// loops and a disabled run costs one pointer comparison per 2000-access
// batch — no allocations, no interface dispatch, byte-identical output.
package obs

import (
	"fmt"

	"repro/internal/units"
)

// Tick is a simulated event-time timestamp. The clock advances by the
// number of accesses completed in each batch and (when event tracing is
// on) by one per page fault served, so ticks are strictly non-decreasing
// within a run and comparable across runs of the same configuration.
type Tick uint64

// EventKind classifies trace events.
type EventKind int

// The event kinds emitted by the simulator.
const (
	EvFault      EventKind = iota // page fault served, by page size
	EvPromote                     // khugepaged promotion (2MB or 1GB)
	EvCompact                     // compaction attempt (smart or normal)
	EvZeroRefill                  // async zero-fill pool refill
	EvChaos                       // chaos fault injection
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvFault:
		return "fault"
	case EvPromote:
		return "promote"
	case EvCompact:
		return "compact"
	case EvZeroRefill:
		return "zero-refill"
	case EvChaos:
		return "chaos"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one instantaneous trace event, stamped with the simulated
// event-time at which it occurred.
type Event struct {
	Tick  Tick
	Kind  EventKind
	Name  string         // e.g. "2MB", "compact-smart", "buddy-fail"
	Size  units.PageSize // page size, meaningful for EvFault/EvPromote
	Bytes uint64         // payload size: populated/copied/zeroed bytes
	DurNs float64        // modeled duration (fault service latency), 0 if n/a
	OK    bool           // attempt outcome (compaction success, etc.)
}

// PhaseMark records entry to or exit from a named simulation phase
// (build, populate, daemons, measure, ...). Begin/end marks are always
// balanced: the simulator brackets each phase even on error paths.
type PhaseMark struct {
	Name  string
	Begin bool
	Tick  Tick
}

// Sample is one row of the per-batch time series. Counter-like fields are
// deltas since the previous sample; gauge-like fields are point-in-time
// values at the batch boundary.
type Sample struct {
	Phase string
	Batch int // completed access batches since run start
	Tick  Tick

	// Translation deltas for the sampled window.
	Accesses   [units.NumPageSizes]uint64 // accesses resolved per page size
	L2Hits     uint64
	Walks      uint64
	WalkMem    uint64  // page-walk memory accesses
	L1HitRate  float64 // fraction of accesses served by the L1 TLB
	WalkCycles float64 // modeled walk+L2 cycles per access in the window
	StallNs    float64 // modeled fault stall accumulated in the window

	// Fault deltas per page size.
	Faults [units.NumPageSizes]uint64

	// Memory-layout gauges at the batch boundary.
	Mapped     [units.NumPageSizes]uint64        // mapped bytes per page size
	FreeFrames uint64                            // free 4KB frames
	FreeOrders [units.TridentMaxOrder + 1]uint64 // buddy free chunks per order
	FMFI2M     float64                           // free memory fragmentation index at 2MB
	ZeroPool   int                               // pre-zeroed 1GB regions available

	// Kernel page-table operation deltas.
	KernelMaps   uint64
	KernelUnmaps uint64
	KernelMoves  uint64
}

// DefaultMaxEvents caps the number of trace events retained per run. A 4KB
// policy can fault millions of pages during population; past the cap,
// events are counted as dropped rather than retained, and the trace
// records the dropped total explicitly (no silent truncation).
const DefaultMaxEvents = 200_000

// Run records the observable history of a single simulation run. It is
// used from exactly one goroutine (the one executing the run), so it needs
// no locking. A nil *Run is a valid, fully disabled recorder.
type Run struct {
	Name        string
	SampleEvery int  // take a Sample every N batches; 0 disables sampling
	Events      bool // record trace events (faults, promotions, ...)
	MaxEvents   int  // per-run event cap; 0 means DefaultMaxEvents

	// OnPhase, if set, observes phase transitions as they happen. The
	// runner uses it to stamp wall-clock phase durations for perf.json —
	// the wall clock stays on that side of the callback, outside the
	// simulated world.
	OnPhase func(name string, begin bool)

	tick    Tick
	batch   int
	events  []Event
	phases  []PhaseMark
	samples []Sample
	dropped uint64
}

// Active reports whether the run records anything beyond phase marks.
func (o *Run) Active() bool {
	return o != nil && (o.Events || o.SampleEvery > 0)
}

// EventsOn reports whether trace events should be emitted.
func (o *Run) EventsOn() bool { return o != nil && o.Events }

// Advance moves the event clock forward by n ticks.
func (o *Run) Advance(n uint64) {
	if o == nil {
		return
	}
	o.tick += Tick(n)
}

// BatchDone advances the event clock by the accesses just completed and
// reports whether the caller should collect a time-series sample for the
// batch boundary it has reached.
func (o *Run) BatchDone(accesses int) bool {
	if o == nil {
		return false
	}
	o.tick += Tick(accesses)
	o.batch++
	return o.SampleEvery > 0 && o.batch%o.SampleEvery == 0
}

// Phase records entry (begin=true) or exit from a named simulation phase
// and forwards the transition to OnPhase.
func (o *Run) Phase(name string, begin bool) {
	if o == nil {
		return
	}
	o.phases = append(o.phases, PhaseMark{Name: name, Begin: begin, Tick: o.tick})
	if o.OnPhase != nil {
		o.OnPhase(name, begin)
	}
}

// Emit records one trace event at the current tick. Events beyond the
// per-run cap are dropped and counted.
func (o *Run) Emit(kind EventKind, name string, size units.PageSize, bytes uint64, durNs float64, ok bool) {
	if o == nil || !o.Events {
		return
	}
	max := o.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	if len(o.events) >= max {
		o.dropped++
		return
	}
	o.events = append(o.events, Event{
		Tick: o.tick, Kind: kind, Name: name, Size: size,
		Bytes: bytes, DurNs: durNs, OK: ok,
	})
}

// AddSample appends one time-series row, stamping it with the current
// batch index and tick.
func (o *Run) AddSample(s Sample) {
	if o == nil {
		return
	}
	s.Batch = o.batch
	s.Tick = o.tick
	o.samples = append(o.samples, s)
}

// Empty reports whether the run recorded nothing worth writing out.
// Phase marks alone (recorded on every run for wall-clock phase timing)
// do not make a run non-empty unless tracing was requested.
func (o *Run) Empty() bool {
	if o == nil {
		return true
	}
	if !o.Active() {
		return true
	}
	return len(o.events) == 0 && len(o.samples) == 0 && len(o.phases) == 0
}
