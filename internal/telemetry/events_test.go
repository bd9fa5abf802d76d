package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestEventLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf, 16)
	l.nowWall = func() int64 { return 111 }
	l.Emit(Event{
		SimNs:  1000,
		Type:   EvSLOTighten,
		Tenant: "lat",
		Fields: map[string]float64{"p99_ns": 500000, "target_ns": 300000},
		Text:   map[string]string{"what": "weight"},
	})
	l.Emit(Event{SimNs: 2000, Type: EvRemount, Fields: map[string]float64{"verified": 1}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("read %d events, want 2", len(evs))
	}
	if evs[0].Type != EvSLOTighten || evs[0].Tenant != "lat" ||
		evs[0].Fields["p99_ns"] != 500000 || evs[0].Text["what"] != "weight" {
		t.Errorf("event 0 mangled: %+v", evs[0])
	}
	if evs[0].WallNs != 111 {
		t.Errorf("WallNs not stamped: %d", evs[0].WallNs)
	}
	if evs[1].SimNs != 2000 || evs[1].Fields["verified"] != 1 {
		t.Errorf("event 1 mangled: %+v", evs[1])
	}

	mem := l.Events()
	if len(mem) != 2 || mem[0].Type != EvSLOTighten {
		t.Errorf("in-memory copy mangled: %+v", mem)
	}
}

func TestEventLogRingDropsOldest(t *testing.T) {
	l := NewEventLog(nil, 4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{SimNs: int64(i), Type: "e"})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.SimNs != want {
			t.Errorf("evs[%d].SimNs = %d, want %d", i, ev.SimNs, want)
		}
	}
	if l.Total() != 10 {
		t.Errorf("total=%d, want 10 with 6 dropped", l.Total())
	}
}

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Type: "x"}) // must not panic
	if l.Events() != nil || l.Total() != 0 {
		t.Error("nil log not empty")
	}
	if err := l.Close(); err != nil {
		t.Error(err)
	}
}

func TestEventLogByType(t *testing.T) {
	l := NewEventLog(nil, 0)
	l.Emit(Event{Type: EvDieKill, Fields: map[string]float64{"die": 3}})
	l.Emit(Event{Type: EvPowerCut})
	l.Emit(Event{Type: EvDieKill, Fields: map[string]float64{"die": 5}})
	kills := l.ByType(EvDieKill)
	if len(kills) != 2 || kills[1].Fields["die"] != 5 {
		t.Errorf("ByType: %+v", kills)
	}
}

func TestReadEventsBadLine(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"type\":\"ok\"}\nnot-json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}
