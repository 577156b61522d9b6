package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Per-sweep event journal and live stream (DESIGN.md §10).
//
// Every sweep owns an eventLog with two faces:
//
//   - The journal: the durable, deterministic record of one execution
//     attempt, one NDJSON line per event, written to
//     <sweepDir>/events.ndjson. Journaled events carry NO wall-clock
//     fields — only sequence numbers, identities (sweep id, job index,
//     memo fingerprint) and the exact CSV bytes of the report — so the
//     journal of a finished sweep is byte-identical whether the run was
//     uninterrupted, crashed and resumed, or served entirely from the
//     memo tiers. The journal is truncated and rewritten at the start of
//     every attempt; replayed results re-emit the identical prefix.
//   - The stream: an append-only in-memory feed for live subscribers
//     (GET /sweeps/{id}/events). It interleaves the journaled events with
//     ephemeral lifecycle events (state transitions, retries) that may
//     carry timestamps precisely because they are never journaled.
//
// Reassembling header + row events of a finished journal yields the
// report CSV byte-for-byte: row events carry stats.Table.RowCSV output,
// and the report is stats.Table.CSV output (see TestEventReplayMatchesReport).

// Journaled event kinds (seq >= 0, wall-clock-free, byte-stable):
//
//	{"seq":0,"event":"sweep_started","sweep":id,"jobs":n,"header":csv}
//	{"seq":k,"event":"row","sweep":id,"job":i,"fingerprint":fp,"row":csv}
//	{"seq":n+1,"event":"sweep_done","sweep":id,"rows":n}
//
// Ephemeral event kind (no seq, live stream only, timestamps allowed):
//
//	{"event":"state","sweep":id,"state":s,"error":e?,"attempt":a,"ts_ms":t}
type evStarted struct {
	Seq    int    `json:"seq"`
	Event  string `json:"event"`
	Sweep  string `json:"sweep"`
	Jobs   int    `json:"jobs"`
	Header string `json:"header"`
}

type evRow struct {
	Seq         int    `json:"seq"`
	Event       string `json:"event"`
	Sweep       string `json:"sweep"`
	Job         int    `json:"job"`
	Fingerprint string `json:"fingerprint"`
	Row         string `json:"row"`
}

type evDone struct {
	Seq   int    `json:"seq"`
	Event string `json:"event"`
	Sweep string `json:"sweep"`
	Rows  int    `json:"rows"`
}

type evState struct {
	Event   string `json:"event"`
	Sweep   string `json:"sweep"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	TsMs    int64  `json:"ts_ms"`
}

func jline(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// All event structs are plain value types; Marshal cannot fail.
		panic(fmt.Sprintf("service: marshaling event: %v", err))
	}
	return string(b)
}

// eventLog is one sweep's journal + live stream. Safe for concurrent use;
// one writer (the Run loop) and any number of stream subscribers.
type eventLog struct {
	mu sync.Mutex
	// path is <sweepDir>/events.ndjson; f is open while an attempt runs.
	path string
	f    *os.File
	// journal holds the current attempt's journaled lines; index == seq.
	journal []string
	// stream is the append-only live feed for this process: journaled
	// lines interleaved with ephemeral ones, never truncated.
	stream []string
	// notify is closed and replaced on every append or finish — a
	// broadcast that wakes all blocked subscribers.
	notify chan struct{}
	// finished: no more events will arrive until the next begin().
	finished bool
	// loaded: journal was recovered from disk (sweep finished in an
	// earlier process; this one only replays).
	loaded bool
	// ioErr records the first journal-file write error of the attempt;
	// finish() surfaces it. A failed journal write degrades observability,
	// never the sweep — the report stays the source of truth — but the
	// failure must reach a log line, not vanish.
	ioErr error
	// onEmit, when non-nil, is called once per emitted event (metrics).
	onEmit func()
}

func newEventLog(path string, onEmit func()) *eventLog {
	return &eventLog{path: path, notify: make(chan struct{}), onEmit: onEmit}
}

// begin opens a fresh attempt: the journal file is truncated and the
// in-memory journal reset, so results replayed from the store rebuild an
// identical journal and the file never mixes events of two attempts.
// The open and the close of any previous attempt's file happen outside
// l.mu — only the pointer swap needs the lock.
func (l *eventLog) begin() error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("service: opening event journal: %w", err)
	}
	l.mu.Lock()
	old := l.f
	l.f = f
	l.journal = l.journal[:0]
	l.finished = false
	l.loaded = false
	l.ioErr = nil
	l.mu.Unlock()
	if old != nil {
		if err := old.Close(); err != nil {
			return fmt.Errorf("service: closing previous event journal: %w", err)
		}
	}
	return nil
}

// journaled appends one durable event: render is handed the next seq and
// returns the line, which is recorded in the journal (index == seq),
// written to the journal file, and broadcast to live subscribers. The seq
// is assigned and the line appended under one lock, so lines and sequence
// numbers can never interleave.
func (l *eventLog) journaled(render func(seq int) string) {
	l.mu.Lock()
	line := render(len(l.journal))
	l.journal = append(l.journal, line)
	if l.f != nil {
		// The seq assignment and the file append are one atomic step —
		// that is the whole point of this lock — so this is the one
		// journal write that stays inside the critical section.
		//lint:ignore lockflow seq assignment and journal append must be atomic; the write is bounded and DESIGN.md §10 documents the tradeoff
		if _, err := l.f.WriteString(line + "\n"); err != nil && l.ioErr == nil {
			l.ioErr = err
		}
	}
	l.appendStreamLocked(line)
	l.mu.Unlock()
}

// ephemeral appends one live-stream-only event (never journaled).
func (l *eventLog) ephemeral(line string) {
	l.mu.Lock()
	l.appendStreamLocked(line)
	l.mu.Unlock()
}

func (l *eventLog) appendStreamLocked(line string) {
	l.stream = append(l.stream, line)
	close(l.notify)
	l.notify = make(chan struct{})
	if l.onEmit != nil {
		l.onEmit()
	}
}

// finish seals the attempt: the journal file is synced and closed, and
// subscribers are woken so they can drain and disconnect. The file is
// detached under l.mu and synced outside it — once l.f is nil no
// journaled() call can write, so the sync races with nothing. The
// returned error is the attempt's first journal IO failure (write, sync
// or close); callers log it, because a journal that silently lost bytes
// would break the event-replay gate with no trace.
func (l *eventLog) finish() error {
	l.mu.Lock()
	f := l.f
	l.f = nil
	l.finished = true
	err := l.ioErr
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
	if f != nil {
		if serr := f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// load recovers the journal from disk for a sweep that finished in an
// earlier process (Resume path): subscribers replay it even though no
// events were emitted in this process. Idempotent. The disk read happens
// outside l.mu; the install is double-checked, so a concurrent begin()
// (which would truncate the file mid-read) simply wins — its non-nil l.f
// vetoes the install.
func (l *eventLog) load() {
	l.mu.Lock()
	need := !l.loaded && len(l.journal) == 0 && l.f == nil
	l.mu.Unlock()
	if !need {
		return
	}
	data, err := os.ReadFile(l.path)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.loaded || len(l.journal) > 0 || l.f != nil {
		return
	}
	l.loaded = true
	if err != nil {
		return // no journal (pre-observability sweep dir): stream is empty
	}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line != "" {
			l.journal = append(l.journal, line)
		}
	}
}

// replay returns the journaled lines with seq > after, the live-stream
// cursor positioned after everything the journal already covers, the
// finished flag and the broadcast channel. The subscriber writes the
// returned lines, then follows the stream from cursor via next().
func (l *eventLog) replay(after int) (lines []string, cursor int, finished bool, notify <-chan struct{}) {
	l.load()
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < len(l.journal) {
		lines = append(lines, l.journal[max(after+1, 0):]...)
	}
	return lines, len(l.stream), l.finished, l.notify
}

// next returns stream entries from cursor on, the advanced cursor, the
// finished flag and the broadcast channel to wait on when it returns
// nothing new.
func (l *eventLog) next(cursor int) (lines []string, newCursor int, finished bool, notify <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cursor < len(l.stream) {
		lines = append(lines, l.stream[cursor:]...)
	}
	return lines, len(l.stream), l.finished, l.notify
}

// Emission helpers: the service calls these; each renders the canonical
// line for its event kind.

func (l *eventLog) sweepStarted(id string, jobs int, header string) {
	l.journaled(func(seq int) string {
		return jline(evStarted{Seq: seq, Event: "sweep_started", Sweep: id, Jobs: jobs, Header: header})
	})
}

func (l *eventLog) row(id string, job int, fingerprint, row string) {
	l.journaled(func(seq int) string {
		return jline(evRow{Seq: seq, Event: "row", Sweep: id, Job: job, Fingerprint: fingerprint, Row: row})
	})
}

func (l *eventLog) sweepDone(id string, rows int) {
	l.journaled(func(seq int) string {
		return jline(evDone{Seq: seq, Event: "sweep_done", Sweep: id, Rows: rows})
	})
}

func (l *eventLog) state(id, state, errMsg string, attempt int) {
	l.ephemeral(jline(evState{
		Event: "state", Sweep: id, State: state, Error: errMsg,
		Attempt: attempt, TsMs: time.Now().UnixMilli(),
	}))
}

// terminalStateLine renders the synthetic closing event every stream ends
// with. It is generated per subscriber (not stored), so a replay of a
// long-finished sweep still closes with the sweep's terminal state.
func terminalStateLine(sw Sweep) string {
	return jline(evState{
		Event: "state", Sweep: sw.ID, State: sw.State, Error: sw.Error,
		Attempt: sw.Attempts, TsMs: time.Now().UnixMilli(),
	})
}

// eventsPath is where a sweep's journal lives. Unlike request.json and
// report.csv it is appended live, not written atomically: a torn tail is
// harmless because the next attempt truncates and rewrites it, and replay
// of a finished sweep only ever reads a journal sealed by finish().
func (s *Service) eventsPath(id string) string {
	return filepath.Join(s.sweepDir(id), "events.ndjson")
}
