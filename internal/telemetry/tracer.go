package telemetry

import "cubeftl/internal/rng"

// The tracer's retention bounds.
const (
	// spanRingSize is the bounded ring of most-recent spans.
	spanRingSize = 4096
	// spanReservoirSize uniformly samples spans beyond the ring via
	// Algorithm R over the spans that fall out of the ring.
	spanReservoirSize = 4096
	// tracerEventCap bounds the operation-event buffer; when full,
	// further events are dropped (counted in droppedEvents).
	tracerEventCap = 1 << 18
)

// Tracer collects completed spans (bounded ring + reservoir of evicted
// spans) and device operation events for Chrome trace export. It never
// schedules simulation events; it only records.
type Tracer struct {
	ring     []Span
	ringHead int // next write slot
	ringN    int

	res     []Span
	evicted int64 // spans that fell out of the ring (reservoir population)
	rng     *rng.Source

	events        []OpEvent
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

// NewTracer returns a tracer whose reservoir draws from a stream derived
// from seed.
func NewTracer(seed uint64) *Tracer {
	return &Tracer{
		ring:    make([]Span, spanRingSize),
		res:     make([]Span, 0, spanReservoirSize),
		pending: make([]Span, 0, spanFlushBatch),
		rng:     newReservoirRNG(seed, "span-reservoir"),
	}
}

// AddSpan records a completed span into the pending batch; batches
// flush into the ring/reservoir when full (and on read). The span
// entering the ring evicts the oldest one (once the ring is full),
// which becomes a candidate for the reservoir, so between them the
// tracer holds the most recent spanRingSize spans plus a uniform sample of
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
	if t.ringN < spanRingSize {
		t.ring[t.ringHead] = sp
		t.ringHead = (t.ringHead + 1) % spanRingSize
		t.ringN++
		return
	}
	old := t.ring[t.ringHead]
	t.ring[t.ringHead] = sp
	t.ringHead = (t.ringHead + 1) % spanRingSize
	t.reservoirOffer(old)
}

func (t *Tracer) reservoirOffer(sp Span) {
	t.evicted++
	if len(t.res) < spanReservoirSize {
		t.res = append(t.res, sp)
		return
	}
	if j := t.rng.Uint64n(uint64(t.evicted)); j < spanReservoirSize {
		t.res[j] = sp
	}
}

// AddEvent records one operation event, dropping (and counting) once
// the buffer is full.
func (t *Tracer) AddEvent(ev OpEvent) {
	if len(t.events) >= tracerEventCap {
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
	if t.ringN < spanRingSize {
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
