package telemetry

import "cubeftl/internal/rng"

// TracerConfig sizes the span/event retention.
type TracerConfig struct {
	// RingSize is the bounded ring of most-recent spans (default 4096).
	RingSize int
	// ReservoirSize uniformly samples spans beyond the ring via
	// Algorithm R over the spans that fall out of the ring (default
	// 4096; 0 keeps the default, negative disables the reservoir).
	ReservoirSize int
	// EventCap bounds the operation-event buffer (default 1<<18); when
	// full, further events are dropped (counted in droppedEvents).
	EventCap int
	// Seed derives the reservoir's RNG stream; the hub fills it in.
	Seed uint64
}

// Tracer collects completed spans (bounded ring + reservoir of evicted
// spans) and device operation events for Chrome trace export. It never
// schedules simulation events; it only records.
type Tracer struct {
	ring     []Span
	ringCap  int
	ringHead int // next write slot
	ringN    int

	res     []Span
	resCap  int
	evicted int64 // spans that fell out of the ring (reservoir population)
	rng     *rng.Source

	events        []OpEvent
	eventCap      int
	droppedEvents int64

	// pending batches completed spans before they are folded into the
	// ring/reservoir, amortizing the modulo/eviction/RNG work over
	// spanFlushBatch spans. Flush order equals arrival order, so the
	// retained set is byte-identical to unbatched insertion.
	pending []Span

	spansSeen int64
}

// spanFlushBatch is the batched ring-flush size.
const spanFlushBatch = 64

// NewTracer returns a tracer with the given retention config.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.ReservoirSize == 0 {
		cfg.ReservoirSize = 4096
	}
	if cfg.EventCap <= 0 {
		cfg.EventCap = 1 << 18
	}
	t := &Tracer{
		ring:     make([]Span, cfg.RingSize),
		ringCap:  cfg.RingSize,
		eventCap: cfg.EventCap,
		pending:  make([]Span, 0, spanFlushBatch),
		rng:      newReservoirRNG(cfg.Seed, "span-reservoir"),
	}
	if cfg.ReservoirSize > 0 {
		t.resCap = cfg.ReservoirSize
		t.res = make([]Span, 0, cfg.ReservoirSize)
	}
	return t
}

// AddSpan records a completed span into the pending batch; batches
// flush into the ring/reservoir when full (and on read). The span
// entering the ring evicts the oldest one (once the ring is full),
// which becomes a candidate for the reservoir, so between them the
// tracer holds the most recent RingSize spans plus a uniform sample of
// all older ones.
func (t *Tracer) AddSpan(sp Span) {
	t.spansSeen++
	t.pending = append(t.pending, sp)
	if len(t.pending) >= spanFlushBatch {
		t.flushSpans()
	}
}

// flushSpans folds the pending batch into the ring/reservoir in
// arrival order.
func (t *Tracer) flushSpans() {
	for i := range t.pending {
		t.insertSpan(t.pending[i])
	}
	t.pending = t.pending[:0]
}

func (t *Tracer) insertSpan(sp Span) {
	if t.ringN < t.ringCap {
		t.ring[t.ringHead] = sp
		t.ringHead = (t.ringHead + 1) % t.ringCap
		t.ringN++
		return
	}
	old := t.ring[t.ringHead]
	t.ring[t.ringHead] = sp
	t.ringHead = (t.ringHead + 1) % t.ringCap
	t.reservoirOffer(old)
}

func (t *Tracer) reservoirOffer(sp Span) {
	if t.resCap <= 0 {
		return
	}
	t.evicted++
	if len(t.res) < t.resCap {
		t.res = append(t.res, sp)
		return
	}
	if j := t.rng.Uint64n(uint64(t.evicted)); j < uint64(t.resCap) {
		t.res[j] = sp
	}
}

// AddEvent records one operation event, dropping (and counting) once
// the buffer is full.
func (t *Tracer) AddEvent(ev OpEvent) {
	if len(t.events) >= t.eventCap {
		t.droppedEvents++
		return
	}
	t.events = append(t.events, ev)
}

// SpansSeen returns the total number of spans recorded.
func (t *Tracer) SpansSeen() int64 { return t.spansSeen }

// Spans returns every retained span (reservoir sample of old spans
// followed by the ring's contents), ordered by span ID so export order
// is deterministic and roughly chronological.
func (t *Tracer) Spans() []Span {
	t.flushSpans()
	out := make([]Span, 0, len(t.res)+t.ringN)
	out = append(out, t.res...)
	if t.ringN < t.ringCap {
		out = append(out, t.ring[:t.ringN]...)
	} else {
		out = append(out, t.ring[t.ringHead:]...)
		out = append(out, t.ring[:t.ringHead]...)
	}
	sortSpans(out)
	return out
}

// Events returns the recorded operation events (already in record
// order, which is simulated-time order for a deterministic engine).
func (t *Tracer) Events() []OpEvent { return t.events }

// sortSpans orders by span ID (insertion sort is fine for export-time
// use; the reservoir portion is nearly sorted already).
func sortSpans(s []Span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
