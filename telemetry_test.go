package cubeftl

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// telemetryRun executes a fixed-seed short Mixed run with full
// telemetry and returns the stats JSONL, the Chrome trace JSON, the
// breakdown table, and the run stats.
func telemetryRun(t *testing.T) (stats, trace []byte, breakdown string, rs RunStats) {
	t.Helper()
	dev, err := New(Options{FTL: FTLCube, BlocksPerChip: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
	dev.ResetStats()
	dev.EnableTelemetry(TelemetryConfig{Trace: true})
	var statsBuf bytes.Buffer
	if err := dev.StartStats(&statsBuf, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rs, err = dev.RunWorkload("Mixed", 800, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.CloseStats(); err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := dev.WriteChromeTrace(&traceBuf); err != nil {
		t.Fatal(err)
	}
	return statsBuf.Bytes(), traceBuf.Bytes(), dev.BreakdownTable(), rs
}

// keyPaths flattens one JSON object to its key paths: "a.b" for a key
// of a nested object, "a[]" for the elements of an array.
func keyPaths(t *testing.T, line []byte) map[string]bool {
	t.Helper()
	var v any
	if err := json.Unmarshal(line, &v); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	var flatten func(v any, path string)
	flatten = func(v any, path string) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				flatten(x, strings.TrimPrefix(path+"."+k, "."))
			}
		case []any:
			for _, x := range v {
				flatten(x, path+"[]")
			}
		default:
			keys[path] = true
		}
	}
	flatten(v, "")
	return keys
}

// Golden determinism: the same seed produces byte-identical stats JSONL
// and Chrome trace JSON on every execution.
func TestTelemetryOutputsByteIdentical(t *testing.T) {
	s1, t1, b1, _ := telemetryRun(t)
	s2, t2, b2, _ := telemetryRun(t)
	if !bytes.Equal(s1, s2) {
		t.Error("stats JSONL differs across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("Chrome trace differs across identical runs")
	}
	if b1 != b2 {
		t.Error("breakdown table differs across identical runs")
	}
}

// Schema check on real output: every stats line parses with a
// timestamp, tenant, die, and metrics section; the trace parses as
// trace_event JSON with the required fields.
func TestTelemetryOutputSchemas(t *testing.T) {
	stats, trace, breakdown, rs := telemetryRun(t)
	if rs.Requests != 800 {
		t.Fatalf("requests = %d", rs.Requests)
	}

	lines := bytes.Split(bytes.TrimSpace(stats), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stats lines = %d, want several", len(lines))
	}
	var lastTs int64 = -1
	for i, line := range lines {
		var smp struct {
			TsNs    int64             `json:"ts_ns"`
			Tenants []json.RawMessage `json:"tenants"`
			Dies    []json.RawMessage `json:"dies"`
			Metrics struct {
				Gauges map[string]float64 `json:"gauges"`
				Hists  map[string]json.RawMessage
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &smp); err != nil {
			t.Fatalf("stats line %d: %v", i, err)
		}
		if smp.TsNs < lastTs {
			t.Fatalf("stats timestamps not monotonic at line %d", i)
		}
		lastTs = smp.TsNs
		if len(smp.Tenants) != 1 {
			t.Errorf("line %d: tenants = %d", i, len(smp.Tenants))
		}
		if len(smp.Dies) != 8 {
			t.Errorf("line %d: dies = %d, want 8", i, len(smp.Dies))
		}
		if _, ok := smp.Metrics.Gauges["ftl/write_amp"]; !ok {
			t.Errorf("line %d: missing ftl/write_amp gauge", i)
		}
		if _, ok := smp.Metrics.Gauges["ftl/requeue/fenced_total"]; !ok {
			t.Errorf("line %d: missing requeue count", i)
		}
	}

	// The key set of a line is the one a cubesim built at the parent of
	// the one-ledger change (6dc32a7) wrote for this run: the golden file
	// is the last line of its -stats-out, flattened to key paths, plus the
	// two gauges ftl.Stats has declared since (ftl/padded_pages,
	// ftl/early_flushes), and with the four requeue counts renamed when
	// they moved from registry counters into ftl.Stats
	// (metrics.counters.ftl/requeue/fenced is
	// metrics.gauges.ftl/requeue/fenced_total).
	keys := keyPaths(t, lines[len(lines)-1])
	golden, err := os.ReadFile("testdata/stats_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(golden))
	for _, k := range want {
		if !keys[k] {
			t.Errorf("stats line lost key %s", k)
		}
	}
	if len(keys) != len(want) {
		t.Errorf("stats line has %d keys, the parent's had %d: %v", len(keys), len(want), keys)
	}

	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Ts  *float64 `json:"ts"`
			Pid *int     `json:"pid"`
			Tid *int     `json:"tid"`
			Dur *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	var spans, instants int
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("trace event %d missing ph/ts/pid/tid", i)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				t.Fatalf("trace event %d: complete without dur", i)
			}
			spans++
		case "i":
			instants++
		}
	}
	if spans == 0 || instants == 0 {
		t.Errorf("trace has %d slices, %d instants", spans, instants)
	}

	if !strings.Contains(breakdown, "tenant/Mixed/read") ||
		!strings.Contains(breakdown, "p99") {
		t.Errorf("breakdown missing scopes:\n%s", breakdown)
	}
}

// Per-stage p99 components must sum (exactly — the breakdown reports a
// single retained sample's vector) to that sample's end-to-end latency,
// and the quoted latency must be the nearest-rank p99 of the span
// population the tracer retained.
func TestBreakdownP99SumsToEndToEnd(t *testing.T) {
	dev, err := New(Options{FTL: FTLCube, BlocksPerChip: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
	dev.ResetStats()
	dev.EnableTelemetry(TelemetryConfig{Trace: true})
	if _, err := dev.RunWorkload("Mixed", 800, 8); err != nil {
		t.Fatal(err)
	}
	stages := dev.Telemetry().Stages()
	for _, scope := range stages.Scopes() {
		d := stages.Scope(scope)
		for _, p := range []float64{50, 99} {
			v := d.AtPercentile(p)
			var sum int64
			for _, s := range v.Stage {
				sum += s
			}
			if sum != v.TotalNs {
				t.Errorf("%s p%v: stage sum %d != total %d", scope, p, sum, v.TotalNs)
			}
		}
	}
}

// Telemetry must be invisible to the simulation: the same run with
// telemetry fully enabled — or span-sampled 1-in-N — produces identical
// IOPS, latency percentiles, and grant TraceHash as a bare run.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	run := func(mode string) (RunStats, MultiTenantStats) {
		dev, err := New(Options{FTL: FTLCube, BlocksPerChip: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
		dev.ResetStats()
		if mode != "off" {
			cfg := TelemetryConfig{Trace: true}
			if mode == "sampled" {
				cfg.SpanSample = 7
			}
			dev.EnableTelemetry(cfg)
			if err := dev.StartStats(&bytes.Buffer{}, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := dev.RunWorkload("Mixed", 500, 8)
		if err != nil {
			t.Fatal(err)
		}
		mt, err := dev.RunTenants([]TenantConfig{
			{Workload: "OLTP", Requests: 300},
			{Workload: "Web", Requests: 300},
		}, ArbRR, 16)
		if err != nil {
			t.Fatal(err)
		}
		if mode != "off" {
			if err := dev.CloseStats(); err != nil {
				t.Fatal(err)
			}
		}
		return rs, mt
	}
	offR, offM := run("off")
	for _, mode := range []string{"full", "sampled"} {
		onR, onM := run(mode)
		if offR.IOPS != onR.IOPS || offR.ReadP99 != onR.ReadP99 || offR.Elapsed != onR.Elapsed {
			t.Errorf("%s: single-tenant run perturbed: off %+v, on %+v", mode, offR, onR)
		}
		if offM.TraceHash != onM.TraceHash || offM.Grants != onM.Grants || offM.Elapsed != onM.Elapsed {
			t.Errorf("%s: multi-tenant run perturbed: off hash %016x, on hash %016x",
				mode, offM.TraceHash, onM.TraceHash)
		}
	}
}

// A sampled run must trace roughly 1/N of the spans a full-trace run
// does — the point of sampling is that the retained set (and the cost
// of collecting it) shrinks while the simulation stays untouched.
func TestSpanSamplingReducesRetention(t *testing.T) {
	seen := func(sample int) int64 {
		dev, err := New(Options{FTL: FTLCube, BlocksPerChip: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
		dev.ResetStats()
		dev.EnableTelemetry(TelemetryConfig{Trace: true, SpanSample: sample})
		if _, err := dev.RunWorkload("Mixed", 800, 8); err != nil {
			t.Fatal(err)
		}
		return dev.Telemetry().Tracer().SpansSeen()
	}
	full := seen(0)
	sampled := seen(8)
	if full != 800 {
		t.Fatalf("full trace saw %d spans, want 800", full)
	}
	if sampled != 100 {
		t.Errorf("1-in-8 sample saw %d spans, want 100", sampled)
	}
}

func TestTelemetryAPIErrors(t *testing.T) {
	dev, err := New(Options{FTL: FTLPage, BlocksPerChip: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Error("WriteChromeTrace without telemetry accepted")
	}
	if err := dev.StartStats(&bytes.Buffer{}, time.Millisecond); err == nil {
		t.Error("StartStats without telemetry accepted")
	}
	if err := dev.CloseStats(); err == nil {
		t.Error("CloseStats without sampler accepted")
	}
	if dev.BreakdownTable() != "" {
		t.Error("breakdown without telemetry non-empty")
	}
	if err := dev.KillDie(99); err == nil {
		t.Error("KillDie out of range accepted")
	}
}
