// Command cubefleet replays a real block trace (MSR-Cambridge CSV) onto
// a fleet of independent simulated SSDs — each shard its own device,
// FTL, and host-side DRAM cache — with thousands of logical tenants
// mapped onto the shards by a pluggable placement policy.
//
// Usage:
//
//	cubefleet -trace internal/workload/testdata/msr_sample.csv
//	cubefleet -trace t.csv -shards 8 -tenants 2048 -placement capacity \
//	          -cache-pages 4096 -cache-policy 2q -cache-mode back -repeat 8
//	cubefleet -trace t.csv -single          # one device, the same open-loop replay
//
// The fleet report on stdout is deterministic: a fixed -seed and trace
// reproduce it byte for byte regardless of goroutine scheduling. Wall
// clock time goes to stderr, where it cannot perturb diffs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cubeftl"
	"cubeftl/internal/cache"
	"cubeftl/internal/obs"
)

// config is everything cubefleet's command line sets.
type config struct {
	tracePath string
	trace     cubeftl.TraceReplayOptions
	single    bool
	// dev is one shard's device as -ftl -blocks -channels -dies -seed -pe
	// -retention describe it: what -single builds, and what the fleet
	// derives every shard from.
	dev       cubeftl.Options
	fleet     cubeftl.FleetOptions
	cacheMode string
	stats     obs.StatsConfig
	profile   obs.ProfileConfig
}

// bind declares cubefleet's flags on fs.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.tracePath, "trace", "", "block trace file to replay (required)")
	fs.Float64Var(&c.trace.TimeCompression, "compress", 1, "time compression factor (10 = replay in 1/10 of trace time)")
	fs.BoolVar(&c.trace.Tolerant, "tolerant", false, "skip malformed records instead of failing")
	fs.IntVar(&c.trace.MaxRequests, "max-requests", 0, "cap ingested requests (0 = whole trace)")

	fs.BoolVar(&c.single, "single", false, "replay on one device instead of a fleet: the same open-loop replay through one queue of -qd and no cache")

	c.dev = cubeftl.Options{FTL: cubeftl.FTLCube, BlocksPerChip: 16, Seed: 1}
	c.dev.BindFlags(fs, "ftl", "blocks", "channels", "dies", "seed", "pe", "retention")

	f := &c.fleet
	fs.IntVar(&f.Shards, "shards", 4, "independent simulated SSDs")
	fs.IntVar(&f.Tenants, "tenants", 1024, "logical tenants across the fleet")
	fs.StringVar(&f.Placement, "placement", "hash", "tenant placement: hash, range, capacity")
	fs.Float64Var(&f.CapacityJitter, "capacity-jitter", 0, "per-shard capacity variation fraction (pairs with -placement capacity)")
	fs.Float64Var(&f.AgeJitter, "age-jitter", 0, "per-shard P/E variation fraction")

	fs.IntVar(&f.QueuesPerShard, "queues", 8, "host queue pairs per shard")
	fs.IntVar(&f.QueueDepth, "qd", 32, "per-queue depth")

	fs.IntVar(&f.Cache.SizePages, "cache-pages", 0, "per-shard host DRAM cache size in 16 KiB pages (0 = off)")
	fs.StringVar(&f.Cache.Policy, "cache-policy", "lru", "cache replacement: lru, 2q")
	fs.StringVar(&c.cacheMode, "cache-mode", "through", "cache write discipline: through, back")
	fs.Int64Var(&f.PrefillPages, "prefill", 0, "sequentially map the first N pages of each shard before replay")
	fs.IntVar(&f.Repeat, "repeat", 1, "replay the trace N times back to back")
	fs.IntVar(&f.MaxRequests, "fleet-max-requests", 0, "cap total fleet requests after repeat expansion (0 = all)")

	c.stats.RegisterFlags(fs)
	c.profile.RegisterFlags(fs)
}

// finish resolves what the parsed flags imply: the typed cache mode,
// the device half of the fleet's configuration (fleet.Config spells it
// flat), and the one queue depth both replays share.
func (c *config) finish() error {
	if err := c.dev.Validate(); err != nil {
		return err
	}
	mode, err := cache.ParseMode(c.cacheMode)
	if err != nil {
		return err
	}
	f, d := &c.fleet, c.dev
	f.Cache.Mode = mode
	f.Policy, f.Seed, f.PE, f.RetentionMonths = d.FTL, d.Seed, d.PECycles, d.RetentionMonths
	f.BlocksPerChip, f.Channels, f.DiesPerChannel = d.BlocksPerChip, d.Channels, d.DiesPerChannel
	c.trace.QueueDepth = f.QueueDepth
	if c.stats.Out != "" { // no series requested: no sampling
		f.SampleIntervalNs = int64(c.stats.Interval)
	}
	return nil
}

func main() {
	var c config
	c.bind(flag.CommandLine)
	flag.Parse()

	if c.tracePath == "" {
		fmt.Fprintln(os.Stderr, "cubefleet: -trace is required (e.g. internal/workload/testdata/msr_sample.csv)")
		flag.Usage()
		os.Exit(2)
	}
	if err := c.finish(); err != nil {
		fatal(err)
	}
	if err := c.profile.Start(); err != nil {
		fatal(err)
	}
	err := c.run(os.Stdout, os.Stderr)
	if err := c.profile.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "cubefleet: profiling:", err)
	}
	if err != nil {
		fatal(err)
	}
}

// run replays the trace the way the flags say: the deterministic report
// to stdout; wall clock — the one number the host scheduler owns — and
// notes to stderr.
func (c *config) run(stdout, stderr io.Writer) error {
	f, err := os.Open(c.tracePath)
	if err != nil {
		return err
	}
	defer f.Close()

	if c.single {
		ssd, err := cubeftl.New(c.dev)
		if err != nil {
			return err
		}
		if c.fleet.PrefillPages > 0 {
			ssd.Prefill(c.fleet.PrefillPages)
			ssd.ResetStats()
		}
		var statsW *os.File
		if c.stats.Out != "" {
			if statsW, err = os.Create(c.stats.Out); err != nil {
				return err
			}
			defer statsW.Close()
			ssd.EnableTelemetry(cubeftl.TelemetryConfig{})
			if err := ssd.StartStats(statsW, c.stats.Interval); err != nil {
				return err
			}
		}
		start := time.Now()
		st, err := ssd.ReplayTrace(c.tracePath, f, c.trace)
		if err != nil {
			return err
		}
		if statsW != nil {
			if err := ssd.CloseStats(); err != nil {
				return err
			}
			if err := statsW.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "stats: wrote %s\n", c.stats.Out)
		}
		fmt.Fprintf(stdout, "single-device replay: ftl=%s requests=%d iops=%.0f elapsed=%v\n",
			ssd.FTLName(), st.Requests, st.IOPS, st.Elapsed)
		fmt.Fprintf(stdout, "read_lat: p50=%v p90=%v p99=%v\n", st.ReadP50, st.ReadP90, st.ReadP99)
		fmt.Fprintf(stdout, "write_lat: p50=%v p90=%v p99=%v\n", st.WriteP50, st.WriteP90, st.WriteP99)
		fmt.Fprintf(stdout, "gc=%d retries=%d buffer_hits=%d trace_hash=%016x\n",
			st.GCRuns, st.ReadRetries, st.BufferHits, st.TraceHash)
		fmt.Fprintf(stderr, "wall: %v\n", time.Since(start))
		return nil
	}

	if c.stats.Out != "" {
		statsW, err := os.Create(c.stats.Out)
		if err != nil {
			return err
		}
		defer statsW.Close()
		c.fleet.StatsOut = statsW
	}
	start := time.Now() // the wall line covers ingestion; WallNs is the replay alone
	st, err := cubeftl.RunFleet(c.fleet, c.tracePath, f, c.trace)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Fprint(stdout, st.Report())
	if len(st.Series) > 0 && c.stats.Out != "" {
		fmt.Fprintf(stderr, "series: wrote %d samples to %s\n", len(st.Series), c.stats.Out)
	}
	fmt.Fprintf(stderr, "wall: %v (replay %v)\n", wall, time.Duration(st.WallNs))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cubefleet:", err)
	os.Exit(1)
}
