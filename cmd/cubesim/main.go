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
//	cubesim -queues "db=OLTP,web=Web" -arb wrr -weights 1,8 -requests 8000
//	cubesim -queues "bulk=Rocks,hot=Web" -arb prio -prios 0,5 -rate 20000,0
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
	"cubeftl/internal/rng"
)

func main() {
	ftlName := flag.String("ftl", cubeftl.FTLCube, "FTL flavor: page, vert, isp, cube, cube-")
	wl := flag.String("workload", "OLTP", "workload: "+strings.Join(cubeftl.Workloads(), ", "))
	requests := flag.Int("requests", 20000, "host requests to complete")
	qd := flag.Int("qd", 24, "host queue depth")
	channels := flag.Int("channels", 2, "independent NAND channels (data buses)")
	dies := flag.Int("dies", 4, "NAND dies behind each channel")
	dieaware := flag.Bool("dieaware", false, "die-aware dispatch: prefer queue heads targeting idle dies (multi-tenant mode)")
	blocks := flag.Int("blocks", 32, "blocks per chip (428 = paper's full chip)")
	seed := flag.Uint64("seed", 1, "random seed")
	pe := flag.Int("pe", 0, "pre-aged P/E cycles (paper: 0 or 2000)")
	retention := flag.Float64("retention", 0, "pinned retention age in months (paper: 0, 1 or 12)")
	retryMode := flag.String("retry-mode", "", "read-retry stack: baseline (no offset caches), ort (default; the paper's flow), ort-pr (pipelined sense/decode + retry table), ort-pr-ar (ort-pr + adaptive sense termination)")
	prefill := flag.Bool("prefill", true, "prefill the workload footprint before measuring")
	tracePath := flag.String("trace", "", "replay a recorded trace file instead of a synthetic workload")
	pfail := flag.Float64("pfail", 0, "program-status failure rate per word-line program")
	efail := flag.Float64("efail", 0, "erase failure rate per block erase (grows bad blocks)")
	rfault := flag.Float64("rfault", 0, "transient read fault rate per page read")
	badblocks := flag.Float64("badblocks", 0, "fraction of blocks factory-marked bad at boot")
	record := flag.String("record", "", "record the workload to a trace file and exit")
	queues := flag.String("queues", "", "multi-tenant mode: comma-separated tenant streams, each 'workload' or 'name=workload' (e.g. 'db=OLTP,web=Web')")
	arb := flag.String("arb", "rr", "queue arbitration: rr, wrr, prio")
	weights := flag.String("weights", "", "per-tenant WRR weights, comma-separated (e.g. '8,1')")
	rate := flag.String("rate", "", "per-tenant IOPS caps, comma-separated; 0 = unlimited (e.g. '0,20000')")
	prios := flag.String("prios", "", "per-tenant strict-priority classes, comma-separated; higher = more urgent")
	width := flag.Int("width", 32, "device dispatch width shared by all tenant queues (multi-tenant mode)")
	ageSpec := flag.String("age", "", "lifetime fast-forward applied after prefill: years ('3y'), months ('18mo'), or a duration; deterministically ages wear, retention, and bad blocks from -seed")
	refresh := flag.Bool("refresh", false, "retention-aware background scrubber: rewrite blocks before the ECC cliff, yielding to host traffic")
	wearlevel := flag.Bool("wearlevel", false, "cross-block static wear leveling (implies wear-aware allocation)")
	wafOut := flag.String("waf-out", "", "write the per-cause write-amplification ledger and erase-count quantiles to this JSON file after the run")
	powercut := flag.String("powercut", "", "crash test: cut power mid-run at a simulated duration into the run (e.g. 5ms) or at a seed-derived 'random' point, then recover by remounting")
	ckptInterval := flag.Duration("ckpt-interval", 0, "recovery checkpoint cadence in simulated time (0 = 20ms default, negative disables periodic checkpoints; effective with -powercut)")
	verifyMount := flag.Bool("verify-mount", true, "after a -powercut remount, run the full-device consistency verifier (zero lost acked writes)")
	obs := obsConfig{}
	flag.StringVar(&obs.traceOut, "trace-out", "", "write a Chrome trace_event JSON file of the run (open in Perfetto)")
	flag.StringVar(&obs.statsOut, "stats-out", "", "write periodic JSONL telemetry snapshots to this file")
	flag.DurationVar(&obs.statsInterval, "stats-interval", time.Millisecond, "simulated time between -stats-out snapshots")
	flag.BoolVar(&obs.breakdown, "breakdown", false, "print per-stage latency attribution after the run")
	flag.IntVar(&obs.killDie, "killdie", -1, "chaos: make one die fail every program and erase (degrades it mid-run)")
	obs.profile.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if err := validateTopology(*channels, *dies); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := validateRetryMode(*retryMode); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ageMonths, err := parseAge(*ageSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pc, err := parsePowercut(*powercut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := validateRecoveryFlags(pc, *queues, *tracePath, *record); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := obs.startProfiling(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := obs.stopProfiling(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	opts := cubeftl.Options{
		FTL:             *ftlName,
		Channels:        *channels,
		DiesPerChannel:  *dies,
		DieAffinity:     *dieaware,
		BlocksPerChip:   *blocks,
		Seed:            *seed,
		PECycles:        *pe,
		RetentionMonths: *retention,
		RetryMode:       *retryMode,
		Refresh:         *refresh,
		WearLevel:       *wearlevel,
		ProgramFailRate: *pfail,
		EraseFailRate:   *efail,
		ReadFaultRate:   *rfault,
		FactoryBadRate:  *badblocks,
		Recovery:        pc.mode != pcOff,
		CkptInterval:    *ckptInterval,
	}
	dev, err := cubeftl.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	watchSignals(dev)
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := cubeftl.RecordTrace(f, *wl, dev.LogicalPages(), *requests, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("recorded %d %s requests to %s\n", *requests, *wl, *record)
		return
	}
	fmt.Printf("device: %s, %.1f GiB logical, %dch x %ddie, seed %d, aging {P/E %d, %v months}\n",
		dev.FTLName(), float64(dev.CapacityBytes())/(1<<30), *channels, *dies, *seed, *pe, *retention)

	if *prefill {
		n := int64(dev.LogicalPages()) * 6 / 10
		fmt.Printf("prefilling %d pages...\n", n)
		if written := dev.Prefill(n); written < n {
			fmt.Printf("prefill stopped early: %d/%d pages (device degraded)\n", written, n)
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

	lifetimeOn := *refresh || *wearlevel || ageMonths > 0

	if pc.mode != pcOff {
		// Crash test: telemetry and the hub do not survive a remount, so
		// the power-cut path runs without the observability layer.
		var prefillPages int64
		if *prefill {
			prefillPages = int64(dev.LogicalPages()) * 6 / 10
		}
		if err := runPowerCut(dev, opts, *wl, *requests, *qd, prefillPages, pc, *verifyMount, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := reportWAF(dev, *wafOut, lifetimeOn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if err := obs.startTelemetry(dev); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *queues != "" {
		if err := runMultiTenant(dev, *queues, *arb, *weights, *rate, *prios, *width, *requests, *qd); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := reportWAF(dev, *wafOut, lifetimeOn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		settle(dev)
		if err := obs.finishTelemetry(dev); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var st cubeftl.RunStats
	label := *wl
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, err = dev.RunTrace(f, *tracePath, *requests, *qd)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		label = *tracePath
	} else {
		st, err = dev.RunWorkload(*wl, *requests, *qd)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
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
	if err := reportWAF(dev, *wafOut, lifetimeOn); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	settle(dev)
	if err := obs.finishTelemetry(dev); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
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
func runPowerCut(dev *cubeftl.SSD, opts cubeftl.Options, wl string, requests, qd int, prefillPages int64, pc powercutSpec, verify bool, seed uint64) error {
	offset := pc.at
	if pc.mode == pcRandom {
		probe, err := cubeftl.New(opts)
		if err != nil {
			return err
		}
		if prefillPages > 0 {
			probe.Prefill(prefillPages)
			probe.ResetStats()
		}
		full, err := probe.RunWorkload(wl, requests, qd)
		if err != nil {
			return err
		}
		// Uniform in [5%, 95%] of the measured run: never so early that
		// nothing happened, never after the workload finished.
		pct := 5 + rng.New(seed^0x51EE9).Intn(91)
		offset = full.Elapsed * time.Duration(pct) / 100
		fmt.Printf("powercut: random cut %v into a %v run (%d%%)\n", offset, full.Elapsed, pct)
	}
	cut := dev.Now() + offset
	st, err := dev.RunWorkloadUntil(wl, requests, qd, cut)
	if err != nil {
		return err
	}
	acked := dev.AckedWrites()
	if err := dev.PowerCut(); err != nil {
		return err
	}
	fmt.Printf("\nPOWER CUT at %v: %d/%d requests completed, %d logical pages durably acked\n",
		time.Duration(cut), st.Requests, requests, acked)
	rpt, err := dev.Remount(verify, false)
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
	if verify {
		fmt.Println("  verification PASSED: consistent L2P/OOB, zero lost acked writes")
	}
	return nil
}

// runMultiTenant drives the comma-separated tenant streams through the
// multi-queue host interface and prints per-tenant QoS accounting.
func runMultiTenant(dev *cubeftl.SSD, queues, arb, weights, rate, prios string, width, requests, qd int) error {
	tenants, err := parseTenants(queues, requests, qd)
	if err != nil {
		return err
	}
	ws, err := splitList("-weights", weights, len(tenants))
	if err != nil {
		return err
	}
	rs, err := splitList("-rate", rate, len(tenants))
	if err != nil {
		return err
	}
	ps, err := splitList("-prios", prios, len(tenants))
	if err != nil {
		return err
	}
	for i := range tenants {
		tenants[i].Weight = int(ws[i])
		tenants[i].RateIOPS = rs[i]
		tenants[i].Priority = int(ps[i])
	}
	st, err := dev.RunTenants(tenants, arb, width)
	if err != nil {
		return err
	}
	fmt.Printf("\n%d tenants, %s arbitration, dispatch width %d: %v simulated, %d grants (trace %016x)\n",
		len(st.Tenants), arb, width, st.Elapsed, st.Grants, st.TraceHash)
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
