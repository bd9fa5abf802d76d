package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The exported document must be valid JSON in the trace_event Array
// Format: every event carries ph/ts/pid/tid, complete events a dur,
// instants a scope.
func TestWriteChromeTraceSchema(t *testing.T) {
	tr := NewTracer(1)
	sp := Span{ID: 1, Tenant: "db", Queue: 0, Op: "read", LPN: 7, Pages: 2, Die: 3,
		SubmitNs: 1000, GrantNs: 1500, DoneNs: 81_000, Retries: 1}
	sp.Stages[StageQueue] = 500
	sp.Stages[StageNAND] = 78_000
	sp.Stages[StageOther] = 1500
	tr.AddSpan(sp)
	tr.AddEvent(OpEvent{Name: "tREAD", Pid: PidNAND, Tid: 3, StartNs: 2000, DurNs: 78_000,
		Args: map[string]int64{"retries": 1}})
	tr.AddEvent(OpEvent{Name: "die_degraded", Pid: PidFTL, Tid: 1, StartNs: 90_000, DurNs: -1})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, []string{"db"}, 4); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var sawSpan, sawQueueSub, sawOp, sawInstant bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %q missing required ph/ts/pid/tid", ev.Name)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				t.Fatalf("complete event %q missing dur", ev.Name)
			}
		case "i":
			if ev.S == "" {
				t.Fatalf("instant %q missing scope", ev.Name)
			}
		case "M":
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
		switch {
		case ev.Name == "read" && ev.Ph == "X":
			sawSpan = true
			if *ev.Ts != 1.0 { // 1000 ns = 1 µs
				t.Errorf("span ts = %v µs, want 1", *ev.Ts)
			}
			if *ev.Dur != 80.0 {
				t.Errorf("span dur = %v µs, want 80", *ev.Dur)
			}
			if ns, _ := ev.Args["stage_nand_ns"].(float64); ns != 78_000 {
				t.Errorf("span args = %v", ev.Args)
			}
		case ev.Name == "read.queue":
			sawQueueSub = true
		case ev.Name == "tREAD":
			sawOp = true
		case ev.Name == "die_degraded":
			sawInstant = true
		}
	}
	if !sawSpan || !sawQueueSub || !sawOp || !sawInstant {
		t.Errorf("missing events: span=%v queueSub=%v op=%v instant=%v",
			sawSpan, sawQueueSub, sawOp, sawInstant)
	}
	if !strings.Contains(buf.String(), "sq/db") {
		t.Error("host queue track not labeled")
	}
	if !strings.Contains(buf.String(), "die/3") {
		t.Error("die tracks not labeled")
	}
}

func TestWriteChromeTraceNilTracer(t *testing.T) {
	if err := WriteChromeTrace(&bytes.Buffer{}, nil, nil, 0); err == nil {
		t.Error("nil tracer accepted")
	}
}
