// Command soak drives the block service with live concurrent clients
// while chaos runs underneath — random power cuts with remount, a die
// kill, and always-on program/erase/read fault injection — and then
// audits the contract:
//
//   - zero acked-write loss: every write a client saw acknowledged is
//     present after the final power cut + recovery (checked both
//     end-to-end via per-LPN stat probes and against the durability
//     ledger by the post-mount verifier);
//   - no stuck clients: every worker keeps completing calls and
//     finishes within its retry budget;
//   - honest observability: a /metrics scrape mid-chaos serves the
//     required families, every slo_tighten event in the structured log
//     carries its triggering p99 breach, and every remount event
//     carries a verify-pass verdict.
//
// With -ab it runs the identical scenario twice — static weights, then
// the online SLO controller — and reports the protected tenant's read
// p99 under both, demonstrating the controller's effect under chaos.
//
//	soak -dur 10s -clients 6 -cuts 3
//	soak -ab -dur 8s -clients 4
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cubeftl"
	"cubeftl/internal/metrics"
	"cubeftl/internal/server"
	"cubeftl/internal/telemetry"
)

const (
	tenantLat  = "lat"  // protected: read-heavy, SLO-targeted
	tenantBulk = "bulk" // best-effort: write-heavy cap donor
)

type config struct {
	dur       time.Duration
	clients   int
	cuts      int             // power cuts (with remount) spread over the run
	killDie   int             // dies to kill (-1 = none)
	dev       cubeftl.Options // the served device; -seed also roots the harness's RNG streams
	sloTarget time.Duration
	ab        bool
	slo       bool
	verbose   bool
}

func main() {
	var cfg config
	flag.DurationVar(&cfg.dur, "dur", 15*time.Second, "wall-clock duration of one leg")
	flag.IntVar(&cfg.clients, "clients", 6, "concurrent clients (>= 4; first half lat, rest bulk)")
	flag.IntVar(&cfg.cuts, "cuts", 2, "random power cuts (each followed by recovery) per leg")
	flag.IntVar(&cfg.killDie, "killdie", 1, "die to kill mid-run (-1 = none)")
	cfg.dev = cubeftl.Options{
		FTL:            cubeftl.FTLCube,
		Channels:       4,
		DiesPerChannel: 2,
		BlocksPerChip:  64,
		Seed:           1,
		Recovery:       true,
		// Always-on fault chaos: transient read faults plus real
		// program/erase failures the FTL must absorb by retiring
		// blocks and re-issuing data.
		ProgramFailRate: 0.0005,
		EraseFailRate:   0.0005,
		ReadFaultRate:   0.002,
	}
	cfg.dev.BindFlags(flag.CommandLine, "seed")
	flag.DurationVar(&cfg.sloTarget, "slo-target", 2*time.Millisecond, "lat tenant read-p99 objective")
	flag.BoolVar(&cfg.ab, "ab", false, "run twice (static weights, then SLO controller) and compare")
	flag.BoolVar(&cfg.slo, "slo", true, "enable the SLO controller (single-leg mode)")
	flag.BoolVar(&cfg.verbose, "v", false, "log chaos and server events")
	flag.Parse()
	if cfg.clients < 4 {
		log.Fatalf("soak: need >= 4 clients, got %d", cfg.clients)
	}

	if !cfg.ab {
		res := runLeg(cfg, cfg.slo)
		res.print(os.Stdout)
		if !res.pass() {
			os.Exit(1)
		}
		return
	}

	fmt.Println("soak A/B: identical chaos scenario, static weights vs SLO controller")
	static := runLeg(cfg, false)
	static.print(os.Stdout)
	controlled := runLeg(cfg, true)
	controlled.print(os.Stdout)

	fmt.Printf("\nlat read p99: static %v -> slo %v  (%d SLO adjustments, %d breaches)\n",
		static.latReadP99, controlled.latReadP99, controlled.adjustments, controlled.breaches)
	if !static.pass() || !controlled.pass() {
		os.Exit(1)
	}
}

// legResult is one leg's outcome.
type legResult struct {
	slo bool

	ops         int64
	writesAcked int64
	dupAcks     int64
	retries     int64
	dials       int64

	latReadP99  time.Duration
	bulkReadP99 time.Duration

	cuts        int64
	recoveries  int64
	adjustments int
	breaches    int64
	events      int64

	workerErrs []string
	auditErrs  []string
	stuck      bool
}

func (r *legResult) pass() bool {
	return !r.stuck && len(r.workerErrs) == 0 && len(r.auditErrs) == 0
}

func (r *legResult) print(w *os.File) {
	mode := "static"
	if r.slo {
		mode = "slo"
	}
	fmt.Fprintf(w, "\n[%s] %d ops, %d acked writes (%d dup-acked), %d retries, %d dials, %d cuts/%d recoveries\n",
		mode, r.ops, r.writesAcked, r.dupAcks, r.retries, r.dials, r.cuts, r.recoveries)
	fmt.Fprintf(w, "[%s] lat read p99 %v, bulk read p99 %v, %d SLO adjustments (%d breaches), %d events logged\n",
		mode, r.latReadP99, r.bulkReadP99, r.adjustments, r.breaches, r.events)
	for _, e := range r.workerErrs {
		fmt.Fprintf(w, "[%s] WORKER FAIL: %s\n", mode, e)
	}
	for _, e := range r.auditErrs {
		fmt.Fprintf(w, "[%s] AUDIT FAIL: %s\n", mode, e)
	}
	if r.stuck {
		fmt.Fprintf(w, "[%s] STUCK CLIENTS\n", mode)
	}
	if r.pass() {
		fmt.Fprintf(w, "[%s] PASS: zero acked-write loss, no stuck clients\n", mode)
	}
}

// worker is one live client's harness state.
type worker struct {
	id     int
	tenant string
	region [2]int64 // private LPN range [lo, hi)

	cl    *server.Client
	rng   *rand.Rand
	acked map[int64]bool // LPNs this worker saw durably acknowledged

	readLat  *metrics.Hist
	writeLat *metrics.Hist
	ops      atomic.Int64
	err      error
}

func runLeg(cfg config, slo bool) *legResult {
	res := &legResult{slo: slo}
	logf := func(string, ...any) {}
	if cfg.verbose {
		logf = log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds).Printf
	}

	srv, err := server.New(server.Config{
		Device: cfg.dev,
		Tenants: []server.TenantDef{
			{Name: tenantLat, Weight: 4, SLOReadP99: cfg.sloTarget},
			{Name: tenantBulk, Weight: 1},
		},
		// A narrow dispatch width makes tenants genuinely contend at the
		// host, so arbitration weight and rate caps have teeth.
		DispatchWidth: 4,
		SLO: server.SLOConfig{
			Enabled:       slo,
			Interval:      10 * time.Millisecond,
			MinSamples:    12,
			RateFloorIOPS: 200,
		},
		PrefillPages: 2048,
		Logf:         logf,
		// Observability plane on: live /metrics plus the structured event
		// log the post-run audit replays.
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		res.workerErrs = append(res.workerErrs, fmt.Sprintf("server: %v", err))
		return res
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		res.workerErrs = append(res.workerErrs, fmt.Sprintf("listen: %v", err))
		return res
	}
	addr := srv.Addr().String()

	// Partition the logical space: one private region per worker, so the
	// final audit can attribute every LPN to the client that wrote it.
	logical := int64(srv.Device().LogicalPages())
	regionSz := logical / int64(cfg.clients)
	workers := make([]*worker, cfg.clients)
	for i := range workers {
		tenant := tenantLat
		if i >= cfg.clients/2 {
			tenant = tenantBulk
		}
		workers[i] = &worker{
			id:       i,
			tenant:   tenant,
			region:   [2]int64{int64(i) * regionSz, int64(i+1) * regionSz},
			rng:      rand.New(rand.NewSource(int64(cfg.dev.Seed) + int64(i)*7919)),
			acked:    make(map[int64]bool),
			readLat:  metrics.NewHist(0),
			writeLat: metrics.NewHist(0),
		}
	}

	deadline := time.Now().Add(cfg.dur)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(addr, deadline, cfg)
		}(w)
	}

	// Chaos: cfg.cuts power cuts (each with immediate recovery) spread
	// over the leg, plus one die kill at the midpoint. Errors are
	// collected locally and merged only after the goroutine finishes.
	chaosDone := make(chan struct{})
	var chaosErrs []string
	go func() {
		defer close(chaosDone)
		type event struct {
			at time.Duration
			fn func()
		}
		var events []event
		for i := 0; i < cfg.cuts; i++ {
			frac := float64(i+1) / float64(cfg.cuts+1)
			events = append(events, event{
				at: time.Duration(float64(cfg.dur) * frac),
				fn: func() {
					if _, err := srv.Restart(); err != nil {
						chaosErrs = append(chaosErrs, fmt.Sprintf("mid-run recovery: %v", err))
					}
				},
			})
		}
		if cfg.killDie >= 0 {
			events = append(events, event{
				at: cfg.dur * 45 / 100,
				fn: func() { srv.KillDie(cfg.killDie) },
			})
		}
		start := time.Now()
		for _, ev := range events {
			wait := ev.at - time.Since(start)
			if wait > 0 {
				time.Sleep(wait)
			}
			if time.Now().After(deadline) {
				return
			}
			ev.fn()
		}
	}()

	// No-stuck-clients: every worker must finish within its retry
	// budget; give the whole fleet a grace window beyond the deadline.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(cfg.dur + 60*time.Second):
		res.stuck = true
		return res
	}
	<-chaosDone
	res.auditErrs = append(res.auditErrs, chaosErrs...)

	// Final power cut + recovery, then audit every acked LPN through a
	// fresh client. Remount runs the ledger verifier: recovery itself
	// fails the leg if any durably-acked write is missing.
	if _, err := srv.Restart(); err != nil {
		res.auditErrs = append(res.auditErrs, fmt.Sprintf("final recovery: %v", err))
	} else {
		audit, err := server.Dial(server.ClientConfig{Addr: addr, Tenant: tenantLat})
		if err != nil {
			res.auditErrs = append(res.auditErrs, fmt.Sprintf("audit dial: %v", err))
		} else {
			for _, w := range workers {
				for lpn := range w.acked {
					mapped, err := audit.Stat(lpn)
					if err != nil {
						res.auditErrs = append(res.auditErrs, fmt.Sprintf("stat %d: %v", lpn, err))
						break
					}
					if !mapped {
						res.auditErrs = append(res.auditErrs,
							fmt.Sprintf("worker %d: acked write at lpn %d lost after recovery", w.id, lpn))
					}
				}
			}
			audit.Close()
		}
	}

	auditObservability(srv, cfg, res)

	// Collect results.
	latReads, bulkReads := metrics.NewHist(0), metrics.NewHist(0)
	for _, w := range workers {
		res.ops += w.ops.Load()
		res.writesAcked += int64(len(w.acked))
		res.retries += w.cl.Stats.Retries
		res.dials += w.cl.Stats.Dials
		res.dupAcks += w.cl.Stats.Duplicates
		if w.err != nil {
			res.workerErrs = append(res.workerErrs, fmt.Sprintf("worker %d (%s): %v", w.id, w.tenant, w.err))
		}
		if w.tenant == tenantLat {
			latReads.Merge(w.readLat)
		} else {
			bulkReads.Merge(w.readLat)
		}
	}
	if latReads.N() > 0 {
		res.latReadP99 = time.Duration(latReads.Percentile(99))
	}
	if bulkReads.N() > 0 {
		res.bulkReadP99 = time.Duration(bulkReads.Percentile(99))
	}
	st := srv.Stats()
	res.cuts, res.recoveries = st.PowerCuts, st.Recoveries
	decisions, breaches, _, _ := srv.SLOReport()
	res.adjustments, res.breaches = len(decisions), breaches
	if cfg.verbose {
		for _, d := range decisions {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	srv.Close()
	return res
}

// auditObservability checks the observability plane against what the
// leg actually did: the live /metrics endpoint must serve the required
// families, and the structured event log must justify itself — every
// SLO tightening with a p99 breach, every remount with a verify-pass
// verdict, and chaos-op counts matching the server's own counters.
func auditObservability(srv *server.Server, cfg config, res *legResult) {
	fail := func(format string, args ...any) {
		res.auditErrs = append(res.auditErrs, fmt.Sprintf(format, args...))
	}

	addr := srv.MetricsAddr()
	if addr == "" {
		fail("observability: no /metrics address bound")
	} else {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			fail("observability: scrape: %v", err)
		} else {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				fail("observability: /metrics status %d", resp.StatusCode)
			}
			for _, fam := range []string{
				"cube_server_up 1",
				`cube_tenant_read_p99_ns{tenant="lat"}`,
				"cube_slo_enabled",
				"cube_cube_retry_hits",
				"cube_ftl_die_0_degraded",
				"cube_events_total",
			} {
				if !strings.Contains(string(body), fam) {
					fail("observability: /metrics missing %q", fam)
				}
			}
		}
	}

	evs := srv.Events()
	res.events = int64(len(evs))
	var cuts, remounts, kills int64
	for _, ev := range evs {
		switch ev.Type {
		case telemetry.EvSLOTighten:
			if ev.Fields["p99_ns"] <= ev.Fields["target_ns"] {
				fail("event audit: slo_tighten for %s without a p99 breach (p99 %.0fns <= target %.0fns)",
					ev.Tenant, ev.Fields["p99_ns"], ev.Fields["target_ns"])
			}
		case telemetry.EvRemount:
			remounts++
			if ev.Fields["verified"] != 1 {
				fail("event audit: remount at sim %dns without a verify-pass verdict", ev.SimNs)
			}
		case telemetry.EvPowerCut:
			cuts++
		case telemetry.EvDieKill:
			kills++
		}
	}
	st := srv.Stats()
	if cuts != st.PowerCuts {
		fail("event audit: %d power_cut events, server counted %d", cuts, st.PowerCuts)
	}
	if remounts != st.Recoveries {
		fail("event audit: %d remount events, server counted %d recoveries", remounts, st.Recoveries)
	}
	// The die kill is timing-dependent (it may race a restart or the
	// deadline), so its event count is not asserted — but if one was
	// logged, it must name the requested die.
	if kills > 0 {
		for _, ev := range evs {
			if ev.Type == telemetry.EvDieKill && int(ev.Fields["die"]) != cfg.killDie {
				fail("event audit: die_kill names die %.0f, requested %d", ev.Fields["die"], cfg.killDie)
			}
		}
	}
}

// run is one worker's live loop: lat tenants read-heavy, bulk tenants
// write-heavy, all ops inside the worker's private region.
func (w *worker) run(addr string, deadline time.Time, cfg config) {
	cl, err := server.Dial(server.ClientConfig{Addr: addr, Tenant: w.tenant})
	w.cl = cl
	if err != nil {
		w.err = err
		w.cl = &server.Client{}
		return
	}
	defer cl.Close()
	// lat: read-heavy single-page probes; bulk: write-heavy multi-page
	// streams that monopolize channels unless arbitration reins them in.
	writeFrac, pages := 0.2, 1
	if w.tenant == tenantBulk {
		writeFrac, pages = 0.8, 8
	}
	written := make([]int64, 0, 1024)
	for time.Now().Before(deadline) {
		doWrite := w.rng.Float64() < writeFrac || len(written) == 0
		if doWrite {
			lpn := w.region[0] + w.rng.Int63n(w.region[1]-w.region[0]-int64(pages))
			resu, err := cl.Write(lpn, pages)
			if err != nil {
				w.err = fmt.Errorf("write lpn %d: %w", lpn, err)
				return
			}
			for p := int64(0); p < int64(pages); p++ {
				if !w.acked[lpn+p] {
					w.acked[lpn+p] = true
					written = append(written, lpn+p)
				}
			}
			if !resu.Duplicate {
				w.writeLat.Add(int64(resu.Latency))
			}
		} else {
			lpn := written[w.rng.Intn(len(written))]
			resu, err := cl.Read(lpn, 1)
			if err != nil {
				w.err = fmt.Errorf("read lpn %d: %w", lpn, err)
				return
			}
			w.readLat.Add(int64(resu.Latency))
		}
		w.ops.Add(1)
	}
}
