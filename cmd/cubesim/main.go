// Command cubesim runs one of the paper's evaluation workloads against
// a simulated SSD under a chosen FTL and reports throughput, latency
// percentiles, and PS-aware decision counters.
//
// Usage:
//
//	cubesim -ftl cube -workload OLTP -requests 20000
//	cubesim -ftl page -workload Rocks -pe 2000 -retention 12
//
// Multi-tenant mode drives several named streams through the
// NVMe-style multi-queue host interface with QoS arbitration:
//
//	cubesim -tenant db,workload=OLTP,weight=1 -tenant web,workload=Web,weight=8 -arb wrr -requests 8000
//	cubesim -tenant bulk,workload=Rocks,rate=20000 -tenant hot,workload=Web,prio=5 -arb prio
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cubeftl"
	"cubeftl/internal/obs"
	"cubeftl/internal/rng"
)

// config is everything cubesim's command line sets.
type config struct {
	dev cubeftl.Options // the device flags; Recovery follows -powercut

	wl           string
	requests, qd int
	prefill      bool
	tracePath    string
	record       string
	age, wafOut  string
	powercut     string
	verifyMount  bool

	// Observability and chaos (telemetry.go).
	traceOut  string
	stats     obs.StatsConfig
	breakdown bool
	killDie   int
	profile   obs.ProfileConfig
	statsFile *os.File // the open -stats-out sink

	// Multi-tenant mode (-tenant).
	tenants []cubeftl.TenantConfig
	arb     string
	width   int
}

// bind declares cubesim's flags on fs.
func (c *config) bind(fs *flag.FlagSet) {
	c.dev = cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 32, Seed: 1}
	c.dev.BindFlags(fs, "ftl", "channels", "dies", "blocks", "seed", "pe", "retention", "retry-mode",
		"pfail", "efail", "rfault", "badblocks", "refresh", "wearlevel", "ckpt-interval")
	fs.StringVar(&c.wl, "workload", "OLTP", "workload: "+strings.Join(cubeftl.Workloads(), ", "))
	fs.IntVar(&c.requests, "requests", 20000, "host requests to complete")
	fs.IntVar(&c.qd, "qd", 24, "host queue depth")
	fs.BoolVar(&c.prefill, "prefill", true, "prefill the workload footprint before measuring")
	fs.StringVar(&c.tracePath, "trace", "", "replay an MSR-Cambridge or FIU block trace open-loop instead of a synthetic workload (-requests caps the records read, -qd the requests outstanding)")
	fs.StringVar(&c.record, "record", "", "record the workload to an MSR-Cambridge CSV trace file and exit")
	fs.Func("tenant", "multi-tenant mode, one tenant stream per use: name[,workload=W][,weight=N][,depth=N][,prio=N][,rate=IOPS]; the workload defaults to the name and the depth to -qd, rate 0 = unlimited, higher prio = more urgent (e.g. 'hot,workload=YCSB-C,weight=8')",
		func(spec string) error {
			t, err := parseTenant(spec)
			if err == nil {
				c.tenants = append(c.tenants, t)
			}
			return err
		})
	fs.StringVar(&c.arb, "arb", "rr", "queue arbitration: rr, wrr, prio")
	fs.IntVar(&c.width, "width", 32, "device dispatch width shared by all tenant queues (multi-tenant mode)")
	fs.StringVar(&c.age, "age", "", "lifetime fast-forward applied after prefill: years ('3y'), months ('18mo'), or a duration; deterministically ages wear, retention, and bad blocks from -seed")
	fs.StringVar(&c.wafOut, "waf-out", "", "write the per-cause write-amplification ledger and erase-count quantiles to this JSON file after the run")
	fs.StringVar(&c.powercut, "powercut", "", "crash test: cut power mid-run at a simulated duration into the run (e.g. 5ms) or at a seed-derived 'random' point, then recover by remounting")
	fs.BoolVar(&c.verifyMount, "verify-mount", true, "after a -powercut remount, run the full-device consistency verifier (zero lost acked writes)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace_event JSON file of the run (open in Perfetto)")
	c.stats.RegisterFlags(fs)
	fs.BoolVar(&c.breakdown, "breakdown", false, "print per-stage latency attribution after the run")
	fs.IntVar(&c.killDie, "killdie", -1, "chaos: make one die fail every program and erase (degrades it mid-run)")
	c.profile.RegisterFlags(fs)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole program: parse, build the device, bring it to the
// measured state (prefill, age jump), run one of the three measured
// modes, and report. Every failure returns through here, so the
// deferred closers run on every path.
func run() error {
	var c config
	c.bind(flag.CommandLine)
	flag.Parse()

	ageMonths, err := parseAge(c.age)
	if err != nil {
		return err
	}
	pc, err := parsePowercut(c.powercut)
	if err != nil {
		return err
	}
	if err := validateRecoveryFlags(pc, len(c.tenants) > 0, c.tracePath, c.record); err != nil {
		return err
	}
	c.dev.Recovery = pc.mode != pcOff
	if err := c.profile.Start(); err != nil {
		return err
	}
	defer func() {
		if err := c.profile.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	dev, err := cubeftl.New(c.dev)
	if err != nil {
		return err
	}
	watchSignals(dev)
	if c.record != "" {
		return record(dev, &c)
	}
	fmt.Printf("device: %s, %.1f GiB logical, %dch x %ddie, seed %d, aging {P/E %d, %v months}\n",
		dev.FTLName(), float64(dev.CapacityBytes())/(1<<30), dev.Channels(), dev.DiesPerChannel(),
		c.dev.Seed, c.dev.PECycles, c.dev.RetentionMonths)

	var prefilled int64
	if c.prefill {
		prefilled = int64(dev.LogicalPages()) * 6 / 10
		fmt.Printf("prefilling %d pages...\n", prefilled)
		if written := dev.Prefill(prefilled); written < prefilled {
			fmt.Printf("prefill stopped early: %d/%d pages (device degraded)\n", written, prefilled)
		}
		dev.ResetStats()
	}
	if ageMonths > 0 {
		rep := dev.AgeMonths(ageMonths)
		fmt.Printf("aged %.1f months: +%d P/E (wear %d..%d), %d grown bad blocks, %d retry-bucket jumps, %d blocks scrubbed\n",
			rep.Months, rep.PEAdded, rep.MinPE, rep.MaxPE, rep.BadBlocksGrown, rep.BucketJumps, rep.ScrubQueued)
		// Measure the steady state after the age jump, not the scrub
		// burst itself: the run's WAF ledger then attributes what the
		// workload (and the patrol riding on it) actually costs.
		dev.ResetStats()
	}

	if pc.mode != pcOff {
		// Crash test: telemetry and the hub do not survive a remount, so
		// the power-cut path runs without the observability layer.
		err = runPowerCut(dev, &c, prefilled, pc)
	} else {
		if err := c.startTelemetry(dev); err != nil {
			return err
		}
		defer c.closeStats()
		if len(c.tenants) > 0 {
			err = runMultiTenant(dev, &c)
		} else {
			err = runSingle(dev, &c)
		}
	}
	if err != nil {
		return err
	}
	if err := reportWAF(dev, c.wafOut, c.dev.Refresh || c.dev.WearLevel || ageMonths > 0); err != nil {
		return err
	}
	settle(dev)
	return c.finishTelemetry(dev)
}

// record writes the workload to the -record trace file.
func record(dev *cubeftl.SSD, c *config) error {
	f, err := os.Create(c.record)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cubeftl.RecordTrace(f, c.wl, dev.LogicalPages(), c.requests, c.dev.Seed); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d %s requests to %s\n", c.requests, c.wl, c.record)
	return nil
}

// runSingle drives one stream — the named workload closed-loop, or the
// -trace file open-loop, at most -requests of its records — and prints
// the run's measurements.
func runSingle(dev *cubeftl.SSD, c *config) error {
	label, runIt := c.wl, func() (cubeftl.RunStats, error) { return dev.RunWorkload(c.wl, c.requests, c.qd) }
	if c.tracePath != "" {
		f, err := os.Open(c.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		label, runIt = c.tracePath, func() (cubeftl.RunStats, error) {
			return dev.ReplayTrace(c.tracePath, f, cubeftl.TraceReplayOptions{MaxRequests: c.requests, QueueDepth: c.qd})
		}
	}
	st, err := runIt()
	if err != nil {
		return err
	}
	fmt.Printf("\n%s on %s: %d requests in %v simulated\n", label, dev.FTLName(), st.Requests, st.Elapsed)
	fmt.Printf("  IOPS        %.0f\n", st.IOPS)
	fmt.Printf("  read  p50/p90/p99   %v / %v / %v\n", st.ReadP50, st.ReadP90, st.ReadP99)
	fmt.Printf("  write p50/p90/p99   %v / %v / %v\n", st.WriteP50, st.WriteP90, st.WriteP99)
	fmt.Printf("  mean tPROG  %v\n", st.MeanTPROG)
	fmt.Printf("  read retries %d, GC runs %d, reprograms %d, buffer hits %d\n",
		st.ReadRetries, st.GCRuns, st.Reprograms, st.BufferHits)
	if st.ProgramFailures+st.EraseFailures+st.ReadFaults+st.RetiredBlocks+st.WriteRejects > 0 {
		fmt.Printf("  faults: %d program fails, %d erase fails, %d read faults, %d retired blocks, %d recoveries, %d rejected writes\n",
			st.ProgramFailures, st.EraseFailures, st.ReadFaults, st.RetiredBlocks, st.FaultRecoveries, st.WriteRejects)
		if dev.Degraded() {
			fmt.Println("  DEVICE DEGRADED: read-only (free blocks exhausted)")
		}
	}
	if cs := dev.Cube(); cs.LeaderPrograms+cs.FollowerPrograms > 0 {
		fmt.Printf("  PS-aware: %d leaders, %d followers, %d safety rejects, ORT %d hits / %d misses (%d bytes)\n",
			cs.LeaderPrograms, cs.FollowerPrograms, cs.SafetyRejects, cs.ORTHits, cs.ORTMisses, cs.ORTBytes)
		if cs.RetryHits+cs.RetryMisses+cs.RetryStale > 0 {
			fmt.Printf("  retry table: %d hits / %d misses / %d stale, %d live entries\n",
				cs.RetryHits, cs.RetryMisses, cs.RetryStale, cs.RetryEntries)
		}
	}
	return nil
}

// reportWAF prints the per-cause write-amplification ledger when the
// lifetime machinery is in play and writes the -waf-out JSON file when
// one was requested.
func reportWAF(dev *cubeftl.SSD, path string, enabled bool) error {
	w := dev.WAF()
	if enabled {
		const mib = 1 << 20
		fmt.Printf("  WAF %.3f: host %.1f MiB, GC %.1f MiB, refresh %.1f MiB (%d moves), wear-level %.1f MiB (%d moves)\n",
			w.Factor, float64(w.HostBytes)/mib, float64(w.GCBytes)/mib,
			float64(w.RefreshBytes)/mib, w.Refreshes, float64(w.WLBytes)/mib, w.WearLevels)
	}
	if path == "" {
		return nil
	}
	out := struct {
		WAF            cubeftl.WAFStats `json:"waf"`
		EraseQuantiles [][]int          `json:"erase_quantiles"` // per die: min, median, max
		WearSpread     int              `json:"wear_spread"`
	}{w, dev.EraseQuantiles([]float64{0, 0.5, 1}), dev.WearSpread()}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// watchSignals makes SIGINT/SIGTERM stop the simulation at the next
// event boundary instead of killing the process mid-state: the run
// loops return early with partial results, writers flush, and settle
// checkpoints the device. A second signal force-exits.
func watchSignals(dev *cubeftl.SSD) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "\ncubesim: signal — stopping at the next event boundary (signal again to force)")
		dev.Interrupt()
		<-sigc
		fmt.Fprintln(os.Stderr, "cubesim: forced exit")
		os.Exit(1)
	}()
}

// settle finishes an interrupted run gracefully: drain in-flight I/O,
// flush the journal, and (with recovery enabled) write a final
// checkpoint so the next mount starts clean.
func settle(dev *cubeftl.SSD) {
	if !dev.Interrupted() {
		return
	}
	fmt.Fprintln(os.Stderr, "cubesim: interrupted — results above are partial; draining and checkpointing")
	dev.Quiesce()
}

// runPowerCut drives the named workload to the cut instant, kills the
// device mid-flight, remounts from the durable state, and reports the
// recovery. "random" mode first measures the full run on an identical
// probe device (same options and seed, so bit-identical timing) and
// cuts at a seed-derived point within it.
func runPowerCut(dev *cubeftl.SSD, c *config, prefillPages int64, pc powercutSpec) error {
	offset := pc.at
	if pc.mode == pcRandom {
		probe, err := cubeftl.New(c.dev)
		if err != nil {
			return err
		}
		if prefillPages > 0 {
			probe.Prefill(prefillPages)
			probe.ResetStats()
		}
		full, err := probe.RunWorkload(c.wl, c.requests, c.qd)
		if err != nil {
			return err
		}
		// Uniform in [5%, 95%] of the measured run: never so early that
		// nothing happened, never after the workload finished.
		pct := 5 + rng.New(c.dev.Seed^0x51EE9).Intn(91)
		offset = full.Elapsed * time.Duration(pct) / 100
		fmt.Printf("powercut: random cut %v into a %v run (%d%%)\n", offset, full.Elapsed, pct)
	}
	cut := dev.Now() + offset
	st, err := dev.RunWorkloadUntil(c.wl, c.requests, c.qd, cut)
	if err != nil {
		return err
	}
	acked := dev.AckedWrites()
	if err := dev.PowerCut(); err != nil {
		return err
	}
	fmt.Printf("\nPOWER CUT at %v: %d/%d requests completed, %d logical pages durably acked\n",
		time.Duration(cut), st.Requests, c.requests, acked)
	rpt, err := dev.Remount(c.verifyMount, false)
	if err != nil {
		return err
	}
	src := "full OOB scan"
	if rpt.UsedCheckpoint {
		src = fmt.Sprintf("checkpoint (%v old) + %d journal records", rpt.CheckpointAge, rpt.JournalRecords)
	}
	fmt.Printf("remounted in %v simulated from %s\n", rpt.MountTime, src)
	fmt.Printf("  journal torn: %v\n", rpt.JournalTorn)
	fmt.Printf("  %d blocks probed, %d found outside durable state, %d OOB pages scanned\n",
		rpt.BlocksProbed, rpt.DiscoveredBlocks, rpt.OOBPagesScanned)
	fmt.Printf("  %d mappings recovered (%d by OOB roll-forward), %d evacuations\n",
		rpt.MappingsRecovered, rpt.RollForwardWins, rpt.EvacuationsQueued)
	if c.verifyMount {
		fmt.Println("  verification PASSED: consistent L2P/OOB, zero lost acked writes")
	}
	return nil
}

// tenantRuns returns the -tenant streams with their run shape filled
// in: -requests each, and -qd where the spec left the depth at 0.
func (c *config) tenantRuns() []cubeftl.TenantConfig {
	runs := append([]cubeftl.TenantConfig(nil), c.tenants...)
	for i := range runs {
		runs[i].Requests = c.requests
		if runs[i].QueueDepth == 0 {
			runs[i].QueueDepth = c.qd
		}
	}
	return runs
}

// runMultiTenant drives the -tenant streams through the multi-queue
// host interface and prints per-tenant QoS accounting.
func runMultiTenant(dev *cubeftl.SSD, c *config) error {
	st, err := dev.RunTenants(c.tenantRuns(), c.arb, c.width)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d tenants, %s arbitration, dispatch width %d: %v simulated, %d grants (trace %016x)\n",
		len(st.Tenants), c.arb, c.width, st.Elapsed, st.Grants, st.TraceHash)
	fmt.Printf("%-10s %10s %12s %12s %12s %12s %8s %9s %9s\n",
		"tenant", "IOPS", "read p50", "read p99", "read p99.9", "write p99", "grants", "qfulls", "throttles")
	for _, t := range st.Tenants {
		fmt.Printf("%-10s %10.0f %12v %12v %12v %12v %8d %9d %9d\n",
			t.Name, t.IOPS, t.ReadP50, t.ReadP99, t.ReadP999, t.WriteP99,
			t.Grants, t.QueueFulls, t.Throttles)
		if t.Rejects > 0 {
			fmt.Printf("%-10s   %d pages rejected (degraded device)\n", "", t.Rejects)
		}
	}
	fmt.Printf("aggregate: read p99 %v, write p99 %v\n", st.AggReadP99, st.AggWriteP99)
	return nil
}
