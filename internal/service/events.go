package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Per-sweep event journal and live stream (DESIGN.md §10).
//
// Every sweep owns an eventLog with two faces:
//
//   - The journal: the deterministic record of one execution attempt, one
//     NDJSON line per event, held in memory. Journaled events carry NO
//     wall-clock fields — only sequence numbers, identities (sweep id, job
//     index, memo fingerprint) and the exact CSV bytes of the report — so
//     the journal of a finished sweep is byte-identical whether the run
//     was uninterrupted, crashed and resumed, or served entirely from the
//     memo tiers. The journal is reset at the start of every attempt;
//     replayed results re-emit the identical prefix. It is not stored:
//     a finished sweep's journal is a pure function of its grid
//     fingerprints and its report, so a restarted service rebuilds it
//     from the verified report (rebuild), and an unfinished sweep has no
//     journal until its next attempt begins.
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
	// onEmit, when non-nil, is called once per emitted event (metrics).
	onEmit func()
}

func newEventLog(onEmit func()) *eventLog {
	return &eventLog{notify: make(chan struct{}), onEmit: onEmit}
}

// begin opens a fresh attempt: the journal is reset, so results replayed
// from the store rebuild an identical journal and it never mixes events of
// two attempts.
func (l *eventLog) begin() {
	l.mu.Lock()
	l.journal = l.journal[:0]
	l.finished = false
	l.mu.Unlock()
}

// journaled appends one journal event: render is handed the next seq and
// returns the line, which is recorded in the journal (index == seq) and
// broadcast to live subscribers. The seq is assigned and the line appended
// under one lock, so lines and sequence numbers can never interleave.
func (l *eventLog) journaled(render func(seq int) string) {
	l.mu.Lock()
	line := render(len(l.journal))
	l.journal = append(l.journal, line)
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

// finish seals the attempt: subscribers are woken so they can drain and
// disconnect.
func (l *eventLog) finish() {
	l.mu.Lock()
	l.finished = true
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// rebuild restores the journal of a sweep that finished in an earlier
// process from its verified report and seals the log. Report ≡ header +
// one row per grid cell (stats.Table.CSV ≡ HeaderCSV + RowCSV*), so the
// lines are rendered by the same emitters the finished attempt used — on
// a scratch log, keeping only its journal: nothing was emitted in this
// process. A report that does not split into one row per cell is not this
// sweep's, and rebuild reports false.
func (l *eventLog) rebuild(id string, fps []string, report []byte) bool {
	lines := strings.Split(strings.TrimSuffix(string(report), "\n"), "\n")
	if len(lines) != len(fps)+1 {
		return false
	}
	scratch := newEventLog(nil)
	scratch.sweepStarted(id, len(fps), lines[0])
	for i, row := range lines[1:] {
		scratch.row(id, i, fps[i], row)
	}
	scratch.sweepDone(id, len(fps))
	l.mu.Lock()
	l.journal = scratch.journal
	l.mu.Unlock()
	l.finish()
	return true
}

// replay returns the journaled lines with seq > after, the live-stream
// cursor positioned after everything the journal already covers, the
// finished flag and the broadcast channel. The subscriber writes the
// returned lines, then follows the stream from cursor via next().
func (l *eventLog) replay(after int) (lines []string, cursor int, finished bool, notify <-chan struct{}) {
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
