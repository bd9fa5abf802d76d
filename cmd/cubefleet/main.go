// Command cubefleet replays a real block trace (MSR-Cambridge or FIU
// format) onto a fleet of independent simulated SSDs — each shard its
// own device, FTL, and host-side DRAM cache — with thousands of
// logical tenants mapped onto the shards by a pluggable placement
// policy.
//
// Usage:
//
//	cubefleet -trace internal/workload/testdata/msr_sample.csv
//	cubefleet -trace t.csv -shards 8 -tenants 2048 -placement capacity \
//	          -cache-pages 4096 -cache-policy 2q -cache-mode back -repeat 8
//	cubefleet -trace t.csv -single          # one device, closed-loop replay
//
// The fleet report on stdout is deterministic: a fixed -seed and trace
// reproduce it byte for byte regardless of goroutine scheduling. Wall
// clock time goes to stderr, where it cannot perturb diffs.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cubeftl"
	"cubeftl/internal/obs"
)

func main() {
	tracePath := flag.String("trace", "", "block trace file to replay (required)")
	format := flag.String("format", "auto", "trace format: auto, msr, fiu")
	compress := flag.Float64("compress", 1, "time compression factor (10 = replay in 1/10 of trace time)")
	tolerant := flag.Bool("tolerant", false, "skip malformed records instead of failing")
	maxReq := flag.Int("max-requests", 0, "cap ingested requests (0 = whole trace)")

	single := flag.Bool("single", false, "replay on one device closed-loop instead of a fleet")

	shards := flag.Int("shards", 4, "independent simulated SSDs")
	tenants := flag.Int("tenants", 1024, "logical tenants across the fleet")
	placement := flag.String("placement", "hash", "tenant placement: hash, range, capacity")
	seed := flag.Uint64("seed", 1, "fleet seed (device personalities, placement)")
	ftlName := flag.String("ftl", "cube", "per-shard FTL: page, vert, isp, cube, cube-")
	blocks := flag.Int("blocks", 16, "blocks per chip on each shard")
	channels := flag.Int("channels", 0, "channels per shard (0 = device default)")
	dies := flag.Int("dies", 0, "dies per channel (0 = device default)")
	capJitter := flag.Float64("capacity-jitter", 0, "per-shard capacity variation fraction (pairs with -placement capacity)")
	pe := flag.Int("pe", 0, "pre-aged P/E cycles per shard")
	retention := flag.Float64("retention", 0, "retention age in months")
	ageJitter := flag.Float64("age-jitter", 0, "per-shard P/E variation fraction")

	queues := flag.Int("queues", 8, "host queue pairs per shard")
	qd := flag.Int("qd", 32, "per-queue depth")

	cachePages := flag.Int("cache-pages", 0, "per-shard host DRAM cache size in 16 KiB pages (0 = off)")
	cachePolicy := flag.String("cache-policy", "lru", "cache replacement: lru, 2q")
	cacheMode := flag.String("cache-mode", "through", "cache write discipline: through, back")
	prefill := flag.Int64("prefill", 0, "sequentially map the first N pages of each shard before replay")
	repeat := flag.Int("repeat", 1, "replay the trace N times back to back")
	fleetMax := flag.Int("fleet-max-requests", 0, "cap total fleet requests after repeat expansion (0 = all)")

	statsOut := flag.String("stats-out", "", "write the merged fleet time series (one JSON object per interval) to this file")
	statsIvl := flag.Duration("stats-interval", time.Millisecond, "simulated time between fleet series samples")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics for the run on this address (e.g. 127.0.0.1:9090)")
	var profile obs.ProfileConfig
	profile.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "cubefleet: -trace is required (e.g. internal/workload/testdata/msr_sample.csv)")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	if err := profile.Start(); err != nil {
		fatal(err)
	}
	defer func() {
		if err := profile.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "cubefleet: profiling:", err)
		}
	}()

	topt := cubeftl.TraceReplayOptions{
		Format:          *format,
		TimeCompression: *compress,
		Tolerant:        *tolerant,
		MaxRequests:     *maxReq,
		QueueDepth:      *qd,
	}

	if *single {
		ssd, err := cubeftl.New(cubeftl.Options{
			FTL:             *ftlName,
			BlocksPerChip:   *blocks,
			Channels:        *channels,
			DiesPerChannel:  *dies,
			Seed:            *seed,
			PECycles:        *pe,
			RetentionMonths: *retention,
		})
		if err != nil {
			fatal(err)
		}
		if *prefill > 0 {
			ssd.Prefill(*prefill)
			ssd.ResetStats()
		}
		start := time.Now()
		st, err := ssd.ReplayTrace(*tracePath, f, topt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("single-device replay: ftl=%s requests=%d iops=%.0f elapsed=%v\n",
			ssd.FTLName(), st.Requests, st.IOPS, st.Elapsed)
		fmt.Printf("read_lat: p50=%v p90=%v p99=%v\n", st.ReadP50, st.ReadP90, st.ReadP99)
		fmt.Printf("write_lat: p50=%v p90=%v p99=%v\n", st.WriteP50, st.WriteP90, st.WriteP99)
		fmt.Printf("gc=%d retries=%d buffer_hits=%d trace_hash=%016x\n",
			st.GCRuns, st.ReadRetries, st.BufferHits, st.TraceHash)
		fmt.Fprintf(os.Stderr, "wall: %v\n", time.Since(start))
		return
	}

	var statsW *os.File
	if *statsOut != "" {
		statsW, err = os.Create(*statsOut)
		if err != nil {
			fatal(err)
		}
		defer statsW.Close()
	}
	var fleetObs *cubeftl.FleetObs
	if *metricsAddr != "" {
		fleetObs, err = cubeftl.StartFleetObs(*metricsAddr, *shards)
		if err != nil {
			fatal(err)
		}
		defer fleetObs.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", fleetObs.Addr())
	}

	fopts := cubeftl.FleetOptions{
		Shards:          *shards,
		Tenants:         *tenants,
		Placement:       *placement,
		Seed:            *seed,
		FTL:             *ftlName,
		BlocksPerChip:   *blocks,
		Channels:        *channels,
		DiesPerChannel:  *dies,
		CapacityJitter:  *capJitter,
		PE:              *pe,
		RetentionMonths: *retention,
		AgeJitter:       *ageJitter,
		QueuesPerShard:  *queues,
		QueueDepth:      *qd,
		CachePages:      *cachePages,
		CachePolicy:     *cachePolicy,
		CacheMode:       *cacheMode,
		PrefillPages:    *prefill,
		Repeat:          *repeat,
		MaxRequests:     *fleetMax,
		SampleInterval:  *statsIvl,
		Obs:             fleetObs,
	}
	if statsW != nil {
		fopts.StatsOut = statsW
	}
	if *statsOut == "" && *metricsAddr == "" {
		fopts.SampleInterval = 0 // no sink requested: skip sampling
	}
	st, err := cubeftl.RunFleet(fopts, *tracePath, f, topt)
	if err != nil {
		fatal(err)
	}
	// The deterministic report goes to stdout; wall clock — the one
	// number the host scheduler owns — goes to stderr.
	fmt.Print(st.Report)
	if st.SeriesSamples > 0 && *statsOut != "" {
		fmt.Fprintf(os.Stderr, "series: wrote %d samples to %s\n", st.SeriesSamples, *statsOut)
	}
	fmt.Fprintf(os.Stderr, "wall: %v\n", st.Wall)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cubefleet:", err)
	os.Exit(1)
}
