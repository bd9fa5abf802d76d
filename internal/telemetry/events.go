package telemetry

// Structured event log: the control-plane counterpart of the span
// tracer. Where spans record the datapath, events record decisions and
// verdicts — SLO knob changes, chaos/admin operations, recovery
// outcomes, block retirements — each stamped with the sim clock (the
// deterministic ordering key) and the wall clock (operator context).
// A soak run's event log is a replayable audit trail: the server's
// chaos soak (TestChaosSoak) reads it back and asserts every tighten had
// a triggering breach and every remount carried a verify-pass verdict.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event types emitted by the stack. Fields carried by each type are
// documented at the emission site; the common contract is that
// numeric evidence lives in Fields and identity in Text.
const (
	EvSLOTighten   = "slo_tighten"   // Fields: p99_ns, target_ns, from, to; Text: what, applied
	EvSLORelax     = "slo_relax"     // same shape as slo_tighten
	EvPowerCut     = "power_cut"     // Fields: sessions, conns_dropped
	EvRemount      = "remount"       // Fields: verified, mappings, used_checkpoint, mount_ns, rollforward_wins; Text: outcome
	EvDieKill      = "die_kill"      // Fields: die
	EvBlockRetire  = "block_retire"  // Fields: chip, block
	EvDieDegraded  = "die_degraded"  // Fields: die
	EvServerDrain  = "server_drain"  // Fields: sessions
	EvServerListen = "server_listen" // Text: addr
)

// Event is one structured log record. SimNs is simulated time (the
// deterministic key); WallNs is stamped at emission from the host
// clock and is explicitly non-deterministic.
type Event struct {
	SimNs   int64              `json:"sim_ns"`
	WallNs  int64              `json:"wall_ns,omitempty"`
	Type    string             `json:"type"`
	Tenant  string             `json:"tenant,omitempty"`
	Session uint64             `json:"session,omitempty"`
	Fields  map[string]float64 `json:"fields,omitempty"`
	Text    map[string]string  `json:"text,omitempty"`
}

// EventLog collects events into a bounded in-memory ring (oldest
// dropped; Total counts them all) and optionally streams each one as a JSONL
// line to a writer. Emission sites run on the core/sim goroutine;
// readers (admin goroutines, scrapes, tests) take snapshots — the
// mutex makes that safe.
type EventLog struct {
	mu      sync.Mutex
	w       *bufio.Writer
	buf     []Event
	start   int // ring head
	n       int // ring occupancy
	total   int64
	werr    error
	nowWall func() int64
}

// DefaultEventCap bounds the in-memory ring when NewEventLog is given
// a non-positive capacity.
const DefaultEventCap = 1 << 16

// NewEventLog returns an event log holding up to capEvents records in
// memory. w may be nil (memory only); when set, every event is also
// written as one JSON line.
func NewEventLog(w io.Writer, capEvents int) *EventLog {
	if capEvents <= 0 {
		capEvents = DefaultEventCap
	}
	l := &EventLog{
		buf:     make([]Event, 0, capEvents),
		nowWall: func() int64 { return time.Now().UnixNano() },
	}
	if w != nil {
		l.w = bufio.NewWriter(w)
	}
	return l
}

// Emit appends one event, stamping WallNs if the caller left it zero.
// The caller stamps SimNs (emission sites own the sim clock).
func (l *EventLog) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.WallNs == 0 {
		ev.WallNs = l.nowWall()
	}
	l.total++
	if l.n < cap(l.buf) {
		l.buf = append(l.buf, ev)
		l.n++
	} else {
		l.buf[l.start] = ev
		l.start = (l.start + 1) % cap(l.buf)
	}
	if l.w != nil && l.werr == nil {
		b, err := json.Marshal(ev)
		if err == nil {
			_, err = l.w.Write(append(b, '\n'))
		}
		if err != nil {
			l.werr = err
		}
	}
}

// Events returns a copy of the retained events in emission order.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.start+i)%cap(l.buf)])
	}
	return out
}

// ByType returns the retained events of one type, in emission order.
func (l *EventLog) ByType(typ string) []Event {
	var out []Event
	for _, ev := range l.Events() {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// Total returns how many events were emitted over the log's lifetime
// (including any the ring has since dropped).
func (l *EventLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Close flushes the JSONL stream and returns the first write error
// encountered, if any. The in-memory ring stays readable.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		if err := l.w.Flush(); err != nil && l.werr == nil {
			l.werr = err
		}
	}
	return l.werr
}

// ReadEvents parses a JSONL event stream (as written by EventLog) back
// into events, reporting the first malformed line by number.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return out, fmt.Errorf("telemetry: event line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// SetEventLog attaches an event log to the hub; layers below the
// facade (FTL retirements, degraded transitions) emit through the hub
// so they need no direct handle.
func (h *Hub) SetEventLog(l *EventLog) { h.events = l }

// EventLog returns the attached event log, or nil.
func (h *Hub) EventLog() *EventLog {
	if h == nil {
		return nil
	}
	return h.events
}

// EmitEvent stamps the current sim time onto ev (unless the caller
// already did) and appends it to the attached event log. A hub without
// a log drops the event — emission sites stay unconditional.
func (h *Hub) EmitEvent(ev Event) {
	if h == nil || h.events == nil {
		return
	}
	if ev.SimNs == 0 {
		ev.SimNs = h.eng.Now()
	}
	h.events.Emit(ev)
}
