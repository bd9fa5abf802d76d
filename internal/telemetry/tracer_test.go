package telemetry

import "testing"

func span(id uint64) Span {
	return Span{ID: id, Tenant: "t", Op: "read", SubmitNs: int64(id) * 10, DoneNs: int64(id)*10 + 5}
}

// The tracer retains the most recent spanRingSize spans plus a uniform
// sample of the ones the ring evicts: while the evicted fit in the
// reservoir, every span is kept.
func TestTracerRingPlusReservoirKeepsAll(t *testing.T) {
	tr := NewTracer(1)
	n := uint64(spanRingSize + 16) // the ring evicts sixteen
	for id := uint64(1); id <= n; id++ {
		tr.AddSpan(span(id))
	}
	got := tr.Spans()
	if len(got) != int(n) {
		t.Fatalf("retained %d spans, want %d", len(got), n)
	}
	for i, sp := range got {
		if sp.ID != uint64(i+1) {
			t.Fatalf("Spans() not ID-ordered: pos %d has ID %d", i, sp.ID)
		}
	}
	if tr.SpansSeen() != int64(n) {
		t.Errorf("SpansSeen = %d", tr.SpansSeen())
	}
}

// Long overflow: reservoir keeps a bounded uniform subset, ring keeps
// the tail, and repeat builds with one seed agree exactly.
func TestTracerReservoirBoundedAndDeterministic(t *testing.T) {
	const n = 3 * (spanRingSize + spanReservoirSize)
	build := func() []Span {
		tr := NewTracer(5)
		for id := uint64(1); id <= n; id++ {
			tr.AddSpan(span(id))
		}
		return tr.Spans()
	}
	a, b := build(), build()
	if len(a) != spanRingSize+spanReservoirSize {
		t.Fatalf("retained %d spans, want %d", len(a), spanRingSize+spanReservoirSize)
	}
	if len(a) != len(b) {
		t.Fatalf("len mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("pos %d: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	// Spans() is ID-ordered, so the ring's tail is its last
	// spanRingSize entries, and the reservoir sampled from before it.
	for i, sp := range a[spanReservoirSize:] {
		if want := uint64(n - spanRingSize + 1 + i); sp.ID != want {
			t.Fatalf("ring pos %d: ID %d, want %d", i, sp.ID, want)
		}
	}
	if last := a[spanReservoirSize-1].ID; last > n-spanRingSize {
		t.Fatalf("reservoir holds span %d, which the ring never evicted", last)
	}
	// A uniform sample of 16384 evicted spans is not the first 4096.
	if a[spanReservoirSize-1].ID <= spanReservoirSize {
		t.Fatal("reservoir kept only the first spans it was offered")
	}
}

func TestTracerEventCapDropsAndCounts(t *testing.T) {
	tr := NewTracer(1)
	for i := 0; i < tracerEventCap+2; i++ {
		tr.AddEvent(OpEvent{Name: "op", Pid: PidNAND, Tid: 0, StartNs: int64(i)})
	}
	if got := len(tr.Events()); got != tracerEventCap {
		t.Errorf("events kept = %d, want %d", got, tracerEventCap)
	}
	if got := tr.droppedEvents; got != 2 {
		t.Errorf("droppedEvents = %d, want 2", got)
	}
}
