package server

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cubeftl"
	"cubeftl/internal/cache"
	"cubeftl/internal/core"
	"cubeftl/internal/fleet"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/lifetime"
	"cubeftl/internal/metrics"
	"cubeftl/internal/telemetry"
)

func scrape(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// A running server's /metrics must expose valid text exposition with
// the families the acceptance criteria name: per-tenant windowed p99,
// SLO knob state, and the device's retry-table counters.
func TestMetricsEndpoint(t *testing.T) {
	cfg := testConfig(true)
	cfg.MetricsAddr = "127.0.0.1:0"
	srv := startTestServer(t, cfg)
	defer srv.Close()
	addr := srv.MetricsAddr()
	if addr == "" {
		t.Fatal("no metrics address bound")
	}

	cl := testClient(t, srv, "lat")
	defer cl.Close()
	for lpn := int64(0); lpn < 24; lpn++ {
		if _, err := cl.Write(lpn, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := cl.Read(lpn, 1); err != nil {
			t.Fatalf("read: %v", err)
		}
	}

	code, body := scrape(t, addr, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE cube_server_up gauge",
		"cube_server_up 1",
		"cube_server_reads_total 24",
		"cube_server_writes_total 24",
		"cube_server_batched_requests_total 48",
		"# TYPE cube_server_batches_total counter",
		"# TYPE cube_server_window_all_in_total counter",
		"cube_server_window_timeouts_total 0",
		`cube_tenant_read_p99_ns{tenant="lat"}`,
		`cube_tenant_weight{tenant="lat"} 4`,
		`cube_tenant_slo_target_ns{tenant="lat"} 2000000`,
		"cube_slo_enabled 1",
		"# TYPE cube_waf_host_bytes counter",
		"cube_waf_gc_bytes",
		"cube_waf_refresh_bytes",
		"cube_waf_wl_bytes",
		"cube_waf_factor",
		`cube_erase_count{die="0",quantile="0.5"}`,
		"# TYPE cube_cube_retry_hits gauge",
		"cube_cube_retry_misses",
		"cube_ftl_die_0_degraded 0",
		"cube_ftl_write_amp",
		"# TYPE cube_ftl_read_ns summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every exposition line must be a comment or name{labels} value.
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// The windowed p99 observed I/O: a scrape after traffic reports a
	// nonzero window, and the window resets so a quiet follow-up scrape
	// reports zero observations for the quiet tenant.
	if !strings.Contains(body, `cube_tenant_window_ios{tenant="lat"}`) {
		t.Error("missing window_ios family")
	}
	_, body2 := scrape(t, addr, "/metrics")
	if !strings.Contains(body2, `cube_tenant_window_ios{tenant="lat"} 0`) {
		t.Error("window did not reset between scrapes")
	}
}

// /healthz and /readyz must track the mount state machine across
// PowerCut → Recover → Close.
func TestHealthTransitionsAcrossPowerCut(t *testing.T) {
	cfg := testConfig(false)
	cfg.MetricsAddr = "127.0.0.1:0"
	srv := startTestServer(t, cfg)
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	addr := srv.MetricsAddr()

	cl := testClient(t, srv, "lat")
	for lpn := int64(0); lpn < 16; lpn++ {
		if _, err := cl.Write(lpn, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	cl.Close()

	if code, _ := scrape(t, addr, "/healthz"); code != 200 {
		t.Errorf("healthz while up: %d", code)
	}
	if code, body := scrape(t, addr, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("readyz while up: %d %q", code, body)
	}

	if err := srv.PowerCut(); err != nil {
		t.Fatal(err)
	}
	checkIdle(t, srv, "power cut")
	if code, _ := scrape(t, addr, "/healthz"); code != 200 {
		t.Errorf("healthz while down: %d (process alive, should stay 200)", code)
	}
	if code, body := scrape(t, addr, "/readyz"); code != 503 || !strings.Contains(body, "down") {
		t.Errorf("readyz while down: %d %q, want 503 device down", code, body)
	}
	if code, body := scrape(t, addr, "/metrics"); code != 200 || !strings.Contains(body, "cube_server_up 0") {
		t.Errorf("metrics while down: %d, want cube_server_up 0 in body", code)
	}

	rpt, err := srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rpt.Verified {
		t.Fatal("recovery not verified")
	}
	checkIdle(t, srv, "recovered")
	if code, _ := scrape(t, addr, "/readyz"); code != 200 {
		t.Errorf("readyz after recover: %d", code)
	}
	if code, body := scrape(t, addr, "/metrics"); code != 200 ||
		!strings.Contains(body, "cube_server_recoveries_total 1") {
		t.Errorf("metrics after recover: %d missing recovery counter", code)
	}

	srv.Close()
	closed = true
}

// The structured event log must capture the chaos sequence with the
// evidence the soak harness audits: power_cut, remount with a
// verified verdict, die_kill, and SLO decisions with their p99s.
func TestEventLogCapturesChaosOps(t *testing.T) {
	var sink strings.Builder
	cfg := testConfig(true)
	cfg.EventsOut = &sink
	srv := startTestServer(t, cfg)
	cl := testClient(t, srv, "lat")
	for lpn := int64(0); lpn < 16; lpn++ {
		if _, err := cl.Write(lpn, 1); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	cl.Close()

	if err := srv.killDie(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	checkIdle(t, srv, "die killed, restarted")
	evs := srv.Events()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	count := map[string]int{}
	for _, ev := range evs {
		count[ev.Type]++
	}
	if count[telemetry.EvDieKill] != 1 || count[telemetry.EvPowerCut] != 1 ||
		count[telemetry.EvRemount] != 1 || count[telemetry.EvServerDrain] != 0 {
		t.Errorf("event counts before close: %v", count)
	}
	for _, ev := range srv.events.ByType(telemetry.EvRemount) {
		if ev.Fields["verified"] != 1 {
			t.Errorf("remount event without verify-pass verdict: %+v", ev)
		}
		// The last write was acked when its program completed, and nothing
		// ran the device clock on to its journal flush before the cut: it
		// came back from its page's OOB record alone.
		if wins, ok := ev.Fields["rollforward_wins"]; !ok || wins < 1 {
			t.Errorf("remount event reports %v roll-forward wins (present %v), want the last acked write: %+v", wins, ok, ev)
		}
	}
	for _, ev := range srv.events.ByType(telemetry.EvDieKill) {
		if ev.Fields["die"] != 1 {
			t.Errorf("die_kill wrong die: %+v", ev)
		}
	}

	// The JSONL stream replays to the same sequence the server retained
	// (plus the drain event emitted during Close).
	replayed, err := telemetry.ReadEvents(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(evs)+1 {
		t.Fatalf("replayed %d events, want %d", len(replayed), len(evs)+1)
	}
	for i, ev := range evs {
		if replayed[i].Type != ev.Type || replayed[i].SimNs != ev.SimNs {
			t.Fatalf("replay diverges at %d: %+v vs %+v", i, replayed[i], ev)
		}
	}
	if replayed[len(replayed)-1].Type != telemetry.EvServerDrain {
		t.Errorf("last replayed event %q, want server_drain", replayed[len(replayed)-1].Type)
	}
}

// Every SLO tightening event must carry the breach that justified it:
// p99 above target. This is the invariant TestChaosSoak asserts from the
// event log; the unit test drives it with a synthetic controller.
func TestSLOEventsCarryBreachEvidence(t *testing.T) {
	log := telemetry.NewEventLog(nil, 0)
	sc := &sloController{events: log}
	sc.record(Adjustment{At: time.Millisecond, Tenant: "lat", What: "weight",
		From: 4, To: 8, P99: 900 * time.Microsecond, Target: 300 * time.Microsecond,
		Breach: true, Applied: true})
	sc.record(Adjustment{At: 2 * time.Millisecond, Tenant: "bulk", What: "rate",
		From: 0, To: 5000, P99: 100 * time.Microsecond, Target: 300 * time.Microsecond,
		Applied: true})

	tightens := log.ByType(telemetry.EvSLOTighten)
	relaxes := log.ByType(telemetry.EvSLORelax)
	if len(tightens) != 1 || len(relaxes) != 1 {
		t.Fatalf("tightens=%d relaxes=%d", len(tightens), len(relaxes))
	}
	ev := tightens[0]
	if ev.Fields["p99_ns"] <= ev.Fields["target_ns"] {
		t.Errorf("tighten without breach evidence: %+v", ev)
	}
	if ev.Tenant != "lat" || ev.Text["what"] != "weight" ||
		ev.Fields["from"] != 4 || ev.Fields["to"] != 8 {
		t.Errorf("tighten event mangled: %+v", ev)
	}
	if ev.SimNs != int64(time.Millisecond) {
		t.Errorf("SimNs = %d", ev.SimNs)
	}
}

// metricsFamiliesSmoke keeps collectFamilies/exposition in sync: every
// family the collector claims renders without duplicate TYPE lines.
func TestNoDuplicateFamilies(t *testing.T) {
	cfg := testConfig(true)
	cfg.MetricsAddr = "127.0.0.1:0"
	srv := startTestServer(t, cfg)
	defer srv.Close()
	_, body := scrape(t, srv.MetricsAddr(), "/metrics")
	seen := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if seen[line] {
			t.Errorf("duplicate %s", line)
		}
		seen[line] = true
	}
	if len(seen) < 30 {
		t.Errorf("only %d families exposed", len(seen))
	}
}

// What cubeserved serves in `make metrics-smoke`'s configuration — every
// # HELP and # TYPE line and every sample name, values stripped — is
// what a binary built at the parent of the one-ledger change (6dc32a7)
// served: the golden file is that binary's scrape, plus the two families
// ftl.Stats has declared since (ftl/padded_pages, ftl/early_flushes).
func TestMetricsNamesMatchParentScrape(t *testing.T) {
	srv := startTestServer(t, Config{
		Device: cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 4, DiesPerChannel: 2, BlocksPerChip: 16, Seed: 1, Recovery: true},
		Tenants: []TenantDef{
			{Name: "lat", Weight: 8, SLOReadP99: 2 * time.Millisecond},
			{Name: "bulk", Weight: 1},
		},
		Arbiter:     cubeftl.ArbWRR,
		SLO:         SLOConfig{Enabled: true},
		MetricsAddr: "127.0.0.1:0",
	})
	defer srv.Close()
	_, body := scrape(t, srv.MetricsAddr(), "/metrics")
	lines := strings.Split(body, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "#") {
			lines[i], _, _ = strings.Cut(l, " ")
		}
	}
	want, err := os.ReadFile("testdata/metrics_smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines, "\n"); got != string(want) {
		t.Errorf("/metrics names, types or help moved; got:\n%s", got)
	}
}

// Every struct the walker is pointed at, under the prefix its view
// gives it: each exported numeric field is declared or skipped on
// purpose with a well-formed tag (Walk panics otherwise), no two
// declarations anywhere in the process land on one exposition name, and
// README.md's table has the row.
func TestLedgerDeclarations(t *testing.T) {
	readme, err := os.ReadFile("../../README.md") // its metrics table is this walk
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for _, l := range []struct {
		prefix string
		ptr    any
	}{
		{"", new(ftl.Stats)}, {"", new(core.CubeStats)}, {"ftl/", new(lifetime.WAF)}, // the registry
		{"", new(fleet.ShardStats)}, {"", new(cache.Stats)}, // a sampled fleet shard's registry, beside the three above
		{"", new(lifetime.WAF)}, {"", new(Stats)}, {"", new(sloController)}, {"", new(host.TenantStats)}, // collectFamilies
	} {
		named := 0
		for _, row := range metrics.Walk(l.ptr) {
			if row.Name == "" {
				continue
			}
			named++
			name, where := "cube_"+telemetry.PromName(l.prefix+row.Name), row.Field
			if prev, dup := seen[name]; dup {
				t.Errorf("%s is declared by %s and by %T.%s", name, prev, l.ptr, where)
			}
			seen[name] = where
			if line := "| `" + row.Field + "` | `" + row.Name + "` | " + row.Kind + " | " + row.Help + " |"; !strings.Contains(string(readme), line) {
				t.Errorf("README.md's metrics table lacks the row %s", line)
			}
		}
		if named == 0 {
			t.Errorf("%T declares nothing", l.ptr)
		}
	}
}
