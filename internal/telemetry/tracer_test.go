package telemetry

import "testing"

func span(id uint64) Span {
	return Span{ID: id, Tenant: "t", Op: "read", SubmitNs: int64(id) * 10, DoneNs: int64(id)*10 + 5}
}

// With the reservoir on, the tracer retains the most recent RingSize
// spans plus a uniform sample of evicted ones — small counts keep all.
func TestTracerRingPlusReservoirKeepsAll(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 4, ReservoirSize: 16, Seed: 1})
	for id := uint64(1); id <= 10; id++ {
		tr.AddSpan(span(id))
	}
	got := tr.Spans()
	if len(got) != 10 {
		t.Fatalf("retained %d spans, want 10", len(got))
	}
	for i, sp := range got {
		if sp.ID != uint64(i+1) {
			t.Fatalf("Spans() not ID-ordered: pos %d has ID %d", i, sp.ID)
		}
	}
	if tr.SpansSeen() != 10 {
		t.Errorf("SpansSeen = %d", tr.SpansSeen())
	}
}

// A negative reservoir size disables it: only the ring's tail survives.
func TestTracerReservoirDisabled(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 4, ReservoirSize: -1, Seed: 1})
	for id := uint64(1); id <= 10; id++ {
		tr.AddSpan(span(id))
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, sp := range got {
		if want := uint64(7 + i); sp.ID != want {
			t.Errorf("pos %d: ID %d, want %d", i, sp.ID, want)
		}
	}
}

// Long overflow: reservoir keeps a bounded uniform subset, ring keeps
// the tail, and repeat builds with one seed agree exactly.
func TestTracerReservoirBoundedAndDeterministic(t *testing.T) {
	build := func() []Span {
		tr := NewTracer(TracerConfig{RingSize: 8, ReservoirSize: 8, Seed: 5})
		for id := uint64(1); id <= 1000; id++ {
			tr.AddSpan(span(id))
		}
		return tr.Spans()
	}
	a, b := build(), build()
	if len(a) != 16 {
		t.Fatalf("retained %d spans, want 16", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("len mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("pos %d: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	// The ring tail (last 8) must always be present.
	for id := uint64(993); id <= 1000; id++ {
		found := false
		for _, sp := range a {
			if sp.ID == id {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("recent span %d missing", id)
		}
	}
}

func TestTracerEventCapDropsAndCounts(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSize: 4, EventCap: 3, Seed: 1})
	for i := 0; i < 5; i++ {
		tr.AddEvent(OpEvent{Name: "op", Pid: PidNAND, Tid: 0, StartNs: int64(i)})
	}
	if got := len(tr.Events()); got != 3 {
		t.Errorf("events kept = %d, want 3", got)
	}
	if got := tr.droppedEvents; got != 2 {
		t.Errorf("droppedEvents = %d, want 2", got)
	}
}
