package server

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cubeftl"
	"cubeftl/internal/metrics"
	"cubeftl/internal/telemetry"
)

// The live-chaos soak: six TCP clients of two tenants against a served
// device with program, erase and read faults on, two power cuts with
// verified remounts and a die kill while they run, then the audits. No
// acked write may be lost, no client may get stuck, the batch window's
// idle count must hold throughout, and /metrics and the event log must
// account for what the leg did.

// soakDie is the die a leg kills.
const soakDie = 1

// soakConfig serves cubeserved's 4x2 cube device with faults on: a lat
// tenant with a 300 µs read-p99 target and a bulk tenant that donates
// rate, behind a dispatch window narrow enough that the two contend.
func soakConfig(slo bool) Config {
	return Config{
		Device: cubeftl.Options{
			FTL: cubeftl.FTLCube, Channels: 4, DiesPerChannel: 2, BlocksPerChip: 64, Seed: 1,
			Recovery:        true,
			ProgramFailRate: 5e-4, EraseFailRate: 5e-4, ReadFaultRate: 2e-3,
		},
		Tenants: []TenantDef{
			{Name: "lat", Weight: 4, SLOReadP99: 300 * time.Microsecond},
			{Name: "bulk", Weight: 1},
		},
		DispatchWidth: 4,
		SLO:           SLOConfig{Enabled: slo, Interval: 10 * time.Millisecond},
		PrefillPages:  2048,
		MetricsAddr:   "127.0.0.1:0",
	}
}

// TestChaosSoak runs one 400 ms leg with the SLO controller under -short.
// In full it runs two 5 s legs, static weights and then the controller,
// and logs the lat tenant's read p99 under both.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		chaosLeg(t, true)
		return
	}
	static := chaosLeg(t, false)
	slo := chaosLeg(t, true)
	t.Logf("lat read p99: static %v -> slo %v", static, slo)
}

// soakClient is one live client, confined to its own LPN region so the
// audit knows whose write each page was.
type soakClient struct {
	tenant string
	lo, hi int64
	acked  map[int64]bool // pages this client saw acked
	reads  *metrics.Hist  // simulated read latencies
	ops    int
	stats  ClientStats
	err    error
}

// run issues one operation at a time until stop closes. A lat client
// writes one time in five, a page at a time; a bulk client four times in
// five, eight pages at a time. Reads are of one page it has written.
func (w *soakClient) run(addr string, seed int64, stop <-chan struct{}) {
	cl, err := Dial(ClientConfig{Addr: addr, Tenant: w.tenant, RetryBudget: 20 * time.Second})
	if err != nil {
		w.err = err
		return
	}
	defer func() { w.stats = cl.Stats; cl.Close() }()
	writeFrac, pages := 0.2, int64(1)
	if w.tenant == "bulk" {
		writeFrac, pages = 0.8, 8
	}
	rnd := rand.New(rand.NewSource(seed))
	var written []int64
	for ; ; w.ops++ {
		select {
		case <-stop:
			return
		default:
		}
		if len(written) == 0 || rnd.Float64() < writeFrac {
			lpn := w.lo + rnd.Int63n(w.hi-w.lo-pages)
			if _, err := cl.Write(lpn, int(pages)); err != nil {
				w.err = fmt.Errorf("write lpn %d: %w", lpn, err)
				return
			}
			for p := lpn; p < lpn+pages; p++ {
				if !w.acked[p] {
					w.acked[p] = true
					written = append(written, p)
				}
			}
			continue
		}
		lpn := written[rnd.Intn(len(written))]
		res, err := cl.Read(lpn, 1)
		if err != nil {
			w.err = fmt.Errorf("read lpn %d: %w", lpn, err)
			return
		}
		w.reads.Add(int64(res.Latency))
	}
}

// chaosLeg runs one leg of the soak, with or without the SLO controller,
// and returns the lat tenant's read p99.
func chaosLeg(t *testing.T, slo bool) time.Duration {
	t.Helper()
	dur := 5 * time.Second
	if testing.Short() {
		dur = 400 * time.Millisecond
	}
	srv := startTestServer(t, soakConfig(slo))
	defer srv.Close()
	addr := srv.Addr().String()

	const nClients = 6
	region := int64(srv.Device().LogicalPages()) / nClients
	clients := make([]*soakClient, nClients)
	// The batch window's idle count is recounted every millisecond for as
	// long as there is traffic, and after every step below.
	stopWatch := watchIdle(t, srv)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		w := &soakClient{tenant: "lat", lo: int64(i) * region, hi: int64(i+1) * region,
			acked: map[int64]bool{}, reads: metrics.NewHist(0)}
		if i >= nClients/2 {
			w.tenant = "bulk"
		}
		clients[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(addr, int64(1+7919*i), stop)
		}()
	}

	// The chaos runs on this goroutine, each step once its fraction of
	// the leg's traffic has passed. A step's own time comes on top, so a
	// slow remount does not eat into the traffic.
	var done float64
	at := func(frac float64) {
		time.Sleep(time.Duration((frac - done) * float64(dur)))
		done = frac
	}
	restart := func(step string) {
		t.Helper()
		rpt, err := srv.Restart()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !rpt.Verified {
			t.Fatalf("%s: the remount skipped verification", step)
		}
		checkIdle(t, srv, step)
	}
	at(0.2)
	checkIdle(t, srv, "under traffic")
	at(1.0 / 3)
	restart("first restart")
	at(0.45)
	if err := srv.killDie(soakDie); err != nil {
		t.Fatalf("kill die %d: %v", soakDie, err)
	}
	checkIdle(t, srv, "die killed")
	at(2.0 / 3)
	restart("second restart")
	at(0.9)
	auditSoakMetrics(t, srv)
	checkIdle(t, srv, "scraped")
	at(1)
	close(stop)

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("stuck clients: workers did not finish")
	}
	looks := stopWatch()
	if looks < 50 {
		t.Errorf("idle count checked %d times in %v of traffic", looks, dur)
	}
	checkIdle(t, srv, "workers gone")
	for i, w := range clients {
		if w.err != nil {
			t.Fatalf("client %d (%s): %v\n%s", i, w.tenant, w.err, soakDeviceState(srv))
		}
	}

	// The final cut, then every page any client was acked for must Stat
	// as mapped through a fresh client.
	restart("final restart")
	audit := testClient(t, srv, "lat")
	defer audit.Close()
	for i, w := range clients {
		for lpn := range w.acked {
			mapped, err := audit.Stat(lpn)
			if err != nil {
				t.Fatalf("stat %d: %v", lpn, err)
			}
			if !mapped {
				t.Fatalf("client %d (%s): acked write at lpn %d lost", i, w.tenant, lpn)
			}
		}
	}
	auditSoakEvents(t, srv)

	var ops, acked int
	var retries, dials int64
	lat, bulk := metrics.NewHist(0), metrics.NewHist(0)
	for _, w := range clients {
		ops, acked = ops+w.ops, acked+len(w.acked)
		retries, dials = retries+w.stats.Retries, dials+w.stats.Dials
		if w.tenant == "lat" {
			lat.Merge(w.reads)
		} else {
			bulk.Merge(w.reads)
		}
	}
	var adjustments int
	var breaches int64
	srv.do(func() { adjustments, breaches = len(srv.slo.Decisions), srv.slo.Breaches })
	mode := "static"
	if slo {
		mode = "slo"
	}
	p99 := time.Duration(lat.Percentile(99))
	t.Logf("%s leg: %d ops, %d acked pages, %d retries, %d dials, %d idle checks; read p99 lat %v, bulk %v; %d SLO adjustments (%d breaches)",
		mode, ops, acked, retries, dials, looks, p99, time.Duration(bulk.Percentile(99)), adjustments, breaches)
	return p99
}

// soakDeviceState describes, for a failed leg, what the device made of
// the chaos: whether it and each die went read-only, the registry's
// fault and degraded readings, and the event log's counts by type. All
// of it is read on the core goroutine.
func soakDeviceState(srv *Server) string {
	var b strings.Builder
	srv.do(func() {
		dev := srv.Device()
		fmt.Fprintf(&b, "device degraded: %v; dies degraded:", dev.Degraded())
		for i := 0; i < dev.Channels()*dev.DiesPerChannel(); i++ {
			fmt.Fprintf(&b, " %d=%v", i, dev.DieDegraded(i))
		}
		b.WriteString("\nregistry:")
		if hub := dev.Telemetry(); hub != nil {
			gauges := hub.Registry().Snapshot().Gauges
			for _, name := range sortedKeys(gauges) {
				if strings.HasPrefix(name, "faults/") || name == "ftl/degraded_dies" ||
					strings.HasPrefix(name, "ftl/die/") && strings.HasSuffix(name, "/degraded") {
					fmt.Fprintf(&b, " %s=%g", name, gauges[name])
				}
			}
		}
		counts := map[string]int{}
		for _, ev := range srv.Events() {
			counts[ev.Type]++
		}
		b.WriteString("\nevents:")
		for _, typ := range sortedKeys(counts) {
			fmt.Fprintf(&b, " %s=%d", typ, counts[typ])
		}
	})
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// auditSoakMetrics scrapes /metrics while the clients run: the server is
// up and serves the families an operator watching a soak reads.
func auditSoakMetrics(t *testing.T, srv *Server) {
	t.Helper()
	code, body := scrape(t, srv.MetricsAddr(), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics mid-chaos: status %d", code)
	}
	for _, fam := range []string{
		"cube_server_up 1",
		`cube_tenant_read_p99_ns{tenant="lat"}`,
		"cube_slo_enabled",
		"cube_cube_retry_hits",
		"cube_ftl_die_0_degraded",
		"cube_events_total",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics mid-chaos lacks %q", fam)
		}
	}
}

// auditSoakEvents replays the event log against the leg: every SLO
// tightening carries the breach that caused it, every remount a verified
// verdict, the cuts and remounts are the three restarts the server
// counted, and the one die kill names the die killed.
func auditSoakEvents(t *testing.T, srv *Server) {
	t.Helper()
	var cuts, remounts, kills int64
	for _, ev := range srv.Events() {
		switch ev.Type {
		case telemetry.EvSLOTighten:
			if ev.Fields["p99_ns"] <= ev.Fields["target_ns"] {
				t.Errorf("slo_tighten for %s without a breach: p99 %.0f ns <= target %.0f ns",
					ev.Tenant, ev.Fields["p99_ns"], ev.Fields["target_ns"])
			}
		case telemetry.EvRemount:
			remounts++
			if ev.Fields["verified"] != 1 {
				t.Errorf("remount at sim %d ns without a verified verdict", ev.SimNs)
			}
		case telemetry.EvPowerCut:
			cuts++
		case telemetry.EvDieKill:
			kills++
			if die := int(ev.Fields["die"]); die != soakDie {
				t.Errorf("die_kill names die %d, killed %d", die, soakDie)
			}
		}
	}
	st := srv.Stats()
	if cuts != 3 || st.PowerCuts != cuts || remounts != 3 || st.Recoveries != remounts {
		t.Errorf("%d power_cut and %d remount events, server counted %d and %d, want 3 restarts",
			cuts, remounts, st.PowerCuts, st.Recoveries)
	}
	if kills != 1 {
		t.Errorf("%d die_kill events, want 1", kills)
	}
}
