package cubeftl_test

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"cubeftl"
)

// Build a small simulated SSD with the PS-aware cubeFTL, write and read
// a few pages, and see follower word lines programmed with the
// parameters their h-layer's leader measured.
func ExampleNew() {
	dev, err := cubeftl.New(cubeftl.Options{
		FTL:           cubeftl.FTLCube,
		BlocksPerChip: 24, // small device for a fast demo
		Seed:          42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s SSD: %.1f GiB logical (%d pages)\n",
		dev.FTLName(), float64(dev.CapacityBytes())/(1<<30), dev.LogicalPages())

	// Write 3000 pages, then read some of them back.
	for lpn := int64(0); lpn < 3000; lpn++ {
		if err := dev.Write(lpn, nil); err != nil {
			log.Fatal(err)
		}
	}
	dev.Run()
	fmt.Printf("3000 pages written by t=%v (simulated)\n", dev.Now())

	reads := 0
	for lpn := int64(0); lpn < 3000; lpn += 100 {
		if err := dev.Read(lpn, func() { reads++ }); err != nil {
			log.Fatal(err)
		}
	}
	dev.Run()
	fmt.Printf("%d reads completed by t=%v\n", reads, dev.Now())

	// The OPM monitored every h-layer's leading word line and reused the
	// measurements for the followers on the same layer.
	cs := dev.Cube()
	fmt.Printf("leader word lines (default parameters): %d\n", cs.LeaderPrograms)
	fmt.Printf("follower word lines (skips + margins):  %d\n", cs.FollowerPrograms)
	fmt.Printf("ORT footprint: %d bytes for the whole device\n", cs.ORTBytes)
	// Output:
	// built cubeFTL SSD: 1.5 GiB logical (96768 pages)
	// 3000 pages written by t=78.5092ms (simulated)
	// 30 reads completed by t=78.9692ms
	// leader word lines (default parameters): 290
	// follower word lines (skips + margins):  710
	// ORT footprint: 18432 bytes for the whole device
}

// A latency-sensitive point reader ("hot", YCSB-C) shares the SSD with
// a saturating bulk writer through the multi-queue host interface, over
// a narrow dispatch window. Under round-robin the reader's tail inherits
// the writer's queueing; WRR 8:1 isolates it, and a token-bucket cap on
// the writer trims the tail further. The same seed reproduces every number
// and the arbitration trace hash.
func ExampleSSD_RunTenants() {
	run := func(label, arb string, hotWeight int, bulkRate float64) cubeftl.MultiTenantStats {
		dev, err := cubeftl.New(cubeftl.Options{FTL: cubeftl.FTLCube, BlocksPerChip: 32, Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
		dev.ResetStats()
		st, err := dev.RunTenants([]cubeftl.TenantConfig{
			{Name: "hot", Workload: "YCSB-C", Requests: 2000, QueueDepth: 4, Weight: hotWeight},
			{Name: "bulk", Workload: "Bulk", Requests: 3000, QueueDepth: 32, Weight: 1, RateIOPS: bulkRate},
		}, arb, 6)
		if err != nil {
			log.Fatal(err)
		}
		hot, bulk := st.Tenants[0], st.Tenants[1]
		fmt.Printf("%-18s hot p99 %-10v bulk %5.0f IOPS, %4d throttles  %016x\n",
			label, hot.ReadP99, bulk.IOPS, bulk.Throttles, st.TraceHash)
		return st
	}
	rr := run("round-robin", cubeftl.ArbRR, 1, 0)
	wrr := run("WRR 8:1", cubeftl.ArbWRR, 8, 0)
	capped := run("WRR 8:1 + bulk cap", cubeftl.ArbWRR, 8, 4000)
	fmt.Println("WRR hot p99 below round-robin's:", wrr.Tenants[0].ReadP99 < rr.Tenants[0].ReadP99)
	fmt.Println("bulk throttled under the cap:", capped.Tenants[1].Throttles > 0)
	// Output:
	// round-robin        hot p99 1.212416ms bulk  6530 IOPS,    0 throttles  e67dcdde7ea38a47
	// WRR 8:1            hot p99 868.352µs  bulk  6519 IOPS,    0 throttles  50a58e0fa69a07c1
	// WRR 8:1 + bulk cap hot p99 851.968µs  bulk  4043 IOPS, 2967 throttles  4085afee58e202cb
	// WRR hot p99 below round-robin's: true
	// bulk throttled under the cap: true
}

// Record a workload's request stream as an MSR-Cambridge CSV trace,
// then replay it open-loop against two FTLs: both devices see the
// identical requests at the identical times, so every difference is
// the FTL.
func ExampleSSD_ReplayTrace() {
	probe, err := cubeftl.New(cubeftl.Options{FTL: cubeftl.FTLPage, BlocksPerChip: 32, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	var trace bytes.Buffer
	if err := cubeftl.RecordTrace(&trace, "Mongo", probe.LogicalPages(), 4000, 9); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d bytes of MSR CSV\n", trace.Len())
	for _, f := range []string{cubeftl.FTLPage, cubeftl.FTLCube} {
		dev, err := cubeftl.New(cubeftl.Options{FTL: f, BlocksPerChip: 32, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
		dev.ResetStats()
		st, err := dev.ReplayTrace("mongo-capture", bytes.NewReader(trace.Bytes()), cubeftl.TraceReplayOptions{QueueDepth: 24})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %6.0f IOPS, write p90 %v, mean tPROG %v\n",
			dev.FTLName(), st.IOPS, st.WriteP90, st.MeanTPROG)
	}
	// Output:
	// recorded 152730 bytes of MSR CSV
	// pageFTL   56211 IOPS, write p90 753.664µs, mean tPROG 704.898µs
	// cubeFTL   68109 IOPS, write p90 540.672µs, mean tPROG 550.213µs
}

// Run a Mixed workload with the observability layer on: per-IO spans
// exported as a Chrome trace (load it in https://ui.perfetto.dev),
// JSONL stats snapshots per millisecond of simulated time, per-stage
// latency attribution, and the metrics registry.
func ExampleSSD_EnableTelemetry() {
	dev, err := cubeftl.New(cubeftl.Options{
		FTL:            cubeftl.FTLCube,
		Channels:       1,
		DiesPerChannel: 2,
		BlocksPerChip:  24,
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}
	dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
	dev.ResetStats()

	// Telemetry is off by default and costs nothing until enabled.
	dev.EnableTelemetry(cubeftl.TelemetryConfig{Trace: true})
	var stats, trace bytes.Buffer
	if err := dev.StartStats(&stats, time.Millisecond); err != nil {
		log.Fatal(err)
	}
	rs, err := dev.RunWorkload("Mixed", 2000, 16)
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.CloseStats(); err != nil {
		log.Fatal(err)
	}
	if err := dev.WriteChromeTrace(&trace); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Mixed: %d requests, %.0f IOPS, read p99 %v\n", rs.Requests, rs.IOPS, rs.ReadP99)
	fmt.Printf("%d stats snapshots, %d bytes of Chrome trace\n",
		bytes.Count(stats.Bytes(), []byte("\n")), trace.Len())

	// Where did the latency go? The components of every quoted
	// percentile sum to that sample's end-to-end latency.
	fmt.Println(dev.BreakdownTable())

	snap := dev.Telemetry().Registry().Snapshot()
	fmt.Printf("registry: %d gauges, %d histograms\n", len(snap.Gauges), len(snap.Hists))
	fmt.Printf("ftl/write_amp = %.3f\n", snap.Gauges["ftl/write_amp"])
	// Output:
	// Mixed: 2000 requests, 12470 IOPS, read p99 2.228224ms
	// 186 stats snapshots, 640154 bytes of Chrome trace
	// stage-latency attribution (per-sample vectors; components sum to the quoted latency)
	//   die/0/read             (n=376)
	//     p50  694.9us = 86% plane_wait + 12% nand + 3% bus_xfer
	//     p99  1.92ms = 94% plane_wait + 4% nand + 1% bus_wait + 1% bus_xfer
	//     mean 86% plane_wait + 11% nand + 1% bus_wait + 3% bus_xfer
	//   die/1/read             (n=355)
	//     p50  634.9us = 84% plane_wait + 13% nand + 3% bus_xfer
	//     p99  2.58ms = 96% plane_wait + 3% nand + 1% bus_xfer
	//     mean 87% plane_wait + 10% nand + 3% bus_xfer
	//   tenant/Mixed/read      (n=982)
	//     p50  506.9us = 80% plane_wait + 16% nand + 4% bus_xfer
	//     p99  2.28ms = 96% plane_wait + 4% nand + 1% bus_xfer
	//     mean 86% plane_wait + 11% nand + 1% bus_wait + 3% bus_xfer
	//   tenant/Mixed/write     (n=1018)
	//     p50  2.80ms = 100% admit
	//     p99  4.53ms = 100% admit
	//     mean 100% admit
	//
	// registry: 37 gauges, 4 histograms
	// ftl/write_amp = 0.844
}
