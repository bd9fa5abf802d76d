package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"cubeftl/internal/sim"
)

// CompleteSpan must decompose the end-to-end latency so the stage sum
// equals the total exactly, with StageOther absorbing the residual.
func TestCompleteSpanStagesSumToTotal(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHub(eng, 1)
	sp := h.BeginSpan("db", 0, "read", 42, 1)
	eng.Schedule(1_000, func() { h.GrantSpan(sp) })
	eng.Schedule(100_000, func() {
		h.CompleteSpan(sp, &PageProbe{
			Die: 2, PlaneWaitNs: 10_000, NANDNs: 78_000, BusXferNs: 5_000, Retries: 0,
		}, 0)
	})
	eng.Run()

	if sp.TotalNs() != 100_000 {
		t.Fatalf("TotalNs = %d", sp.TotalNs())
	}
	var sum int64
	for _, s := range sp.Stages {
		sum += s
	}
	if sum != sp.TotalNs() {
		t.Errorf("stage sum %d != total %d (stages %v)", sum, sp.TotalNs(), sp.Stages)
	}
	if sp.Stages[StageQueue] != 1_000 {
		t.Errorf("queue = %d, want 1000", sp.Stages[StageQueue])
	}
	if sp.Stages[StageOther] != 100_000-1_000-10_000-78_000-5_000 {
		t.Errorf("other = %d", sp.Stages[StageOther])
	}
	if sp.Die != 2 {
		t.Errorf("Die = %d", sp.Die)
	}
	// The observation landed in both the tenant scope and the die scope.
	if d := h.Stages().Scope("tenant/db/read"); d == nil || d.N() != 1 {
		t.Error("tenant scope not observed")
	}
	if d := h.Stages().Scope("die/2/read"); d == nil || d.N() != 1 {
		t.Error("die scope not observed")
	}
}

// A never-granted span (fully rejected command) clamps the queue stage
// to zero rather than going negative.
func TestCompleteSpanWithoutGrant(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHub(eng, 1)
	sp := h.BeginSpan("db", 0, "write", 1, 4)
	h.CompleteSpan(sp, nil, 4)
	if sp.Stages[StageQueue] != 0 {
		t.Errorf("queue = %d, want 0", sp.Stages[StageQueue])
	}
	if sp.RejectedPages != 4 {
		t.Errorf("RejectedPages = %d", sp.RejectedPages)
	}
}

type fakeTenants struct{}

func (fakeTenants) TenantSamples() []TenantSample {
	return []TenantSample{{Name: "db", Completed: 5, IOPS: 100}}
}

type fakeDies struct{}

func (fakeDies) DieSamples() []DieSample {
	return []DieSample{{Die: 0, Utilization: 0.5, QueueDepth: 2}}
}

// The sampler emits one JSONL line per crossed interval plus a final
// line at Close, keyed to simulated time via the engine probe — without
// keeping the run alive.
func TestSamplerEmitsPerInterval(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHub(eng, 1)
	h.SetTenantSource(fakeTenants{})
	h.SetDeviceSource(fakeDies{})
	ledger := struct {
		X int64 `metric:"x counter a ledger row"`
	}{X: 3}
	h.Registry().MustRegisterStruct("", &ledger, nil)

	var buf bytes.Buffer
	jsonl := NewJSONL(&buf)
	s := h.StartSampler(1000, jsonl.Write)
	for i := 1; i <= 5; i++ {
		eng.Schedule(int64(i)*700, func() {})
	}
	eng.Run() // clock ends at 3500 → boundaries 1000, 2000, 3000
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 4 { // 3 interval lines + final at Close
		t.Fatalf("lines = %d, want 4\n%s", len(lines), buf.String())
	}
	wantTs := []int64{1000, 2000, 3000, 3500}
	for i, line := range lines {
		var smp struct {
			TsNs    int64 `json:"ts_ns"`
			Tenants []struct {
				Name string `json:"name"`
			} `json:"tenants"`
			Dies    []json.RawMessage `json:"dies"`
			Metrics struct {
				Gauges map[string]float64 `json:"gauges"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &smp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if smp.TsNs != wantTs[i] {
			t.Errorf("line %d ts = %d, want %d", i, smp.TsNs, wantTs[i])
		}
		if len(smp.Tenants) != 1 || smp.Tenants[0].Name != "db" {
			t.Errorf("line %d tenants = %v", i, smp.Tenants)
		}
		if len(smp.Dies) != 1 {
			t.Errorf("line %d dies = %d", i, len(smp.Dies))
		}
		if smp.Metrics.Gauges["x"] != 3 {
			t.Errorf("line %d ledger row x = %v", i, smp.Metrics.Gauges["x"])
		}
	}
	if h.QueueNames()[0] != "db" {
		t.Errorf("QueueNames = %v", h.QueueNames())
	}
}
