package cubeftl

// Fleet-mode facade (DESIGN.md §14): real-trace replay onto a single
// simulated SSD or a sharded fleet of them, with host-side DRAM
// caching. Wraps internal/workload's trace parsers and internal/fleet.

import (
	"io"
	"time"

	"cubeftl/internal/cache"
	"cubeftl/internal/fleet"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/workload"
)

// Trace format names accepted by TraceReplayOptions.Format. Aliases of
// the internal parser names so facade callers need no internal import.
const (
	TraceFormatAuto = workload.FormatAuto
	TraceFormatMSR  = workload.FormatMSR
	TraceFormatFIU  = workload.FormatFIU
)

// Typed trace errors re-exported for errors.Is across the facade.
var (
	ErrTraceEmpty      = workload.ErrTraceEmpty
	ErrTraceRecord     = workload.ErrTraceRecord
	ErrTraceOutOfOrder = workload.ErrTraceOutOfOrder
	ErrTraceFormat     = workload.ErrTraceFormat
)

// TraceReplayOptions shapes trace ingestion for ReplayTrace / RunFleet.
type TraceReplayOptions struct {
	// Format selects the parser: TraceFormatAuto (default, sniffs the
	// first record), TraceFormatMSR, or TraceFormatFIU.
	Format string
	// TimeCompression divides inter-arrival gaps (10 = replay a
	// day-long trace in 1/10 of its simulated span); <= 1 = none.
	TimeCompression float64
	// Tolerant skips malformed records and clamps out-of-order
	// timestamps instead of failing with a typed error.
	Tolerant bool
	// MaxRequests bounds ingestion (0 = whole trace).
	MaxRequests int
	// QueueDepth is the closed-loop window for single-device replay
	// (default 32; fleet replay is open-loop and ignores it).
	QueueDepth int
}

func (o TraceReplayOptions) parse(name string, r io.Reader) (*workload.TimedTrace, error) {
	return workload.ParseTimedTrace(name, r, workload.TraceOptions{
		Format:          o.Format,
		TimeCompression: o.TimeCompression,
		Tolerant:        o.Tolerant,
		MaxRequests:     o.MaxRequests,
	})
}

// ReplayTrace parses an MSR-Cambridge or FIU block trace from r and
// replays it closed-loop against this SSD, folding the trace's address
// space onto the device's logical pages and carrying inter-arrival
// gaps as think time. Returns the same RunStats as RunWorkload.
func (s *SSD) ReplayTrace(name string, r io.Reader, opt TraceReplayOptions) (RunStats, error) {
	tr, err := opt.parse(name, r)
	if err != nil {
		return RunStats{}, err
	}
	if err := tr.Remap(int64(s.ctrl.LogicalPages()), opt.Tolerant); err != nil {
		return RunStats{}, err
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 32
	}
	res := workload.Run(s.ctrl, tr.ToTrace(true), workload.RunConfig{Requests: tr.Len(), QueueDepth: depth})
	return s.runStats(res), nil
}

// Placement policy names accepted by FleetOptions.Placement.
const (
	PlacementHash     = fleet.PlaceHash
	PlacementRange    = fleet.PlaceRange
	PlacementCapacity = fleet.PlaceCapacity
)

// Cache replacement policy names accepted by FleetOptions.CachePolicy.
const (
	CacheLRU = cache.PolicyLRU
	Cache2Q  = cache.Policy2Q
)

// FleetOptions configures a sharded fleet run. The zero value selects
// 4 shards x 1024 tenants of cubeFTL devices with caching disabled.
type FleetOptions struct {
	Shards    int    // independent simulated SSDs (default 4)
	Tenants   int    // logical tenants across the fleet (default 1024)
	Placement string // PlacementHash (default) | PlacementRange | PlacementCapacity
	Seed      uint64 // roots per-shard device seeds and placement (default 1)

	FTL            string // any Options.FTL name; FTLCube by default
	BlocksPerChip  int    // per-shard device scale (default 16)
	Channels       int    // 0 = device default (2)
	DiesPerChannel int    // 0 = device default (4)

	// CapacityJitter / AgeJitter vary each shard's blocks-per-chip /
	// P/E count by up to the given fraction (seed-derived).
	CapacityJitter  float64
	PE              int
	RetentionMonths float64
	AgeJitter       float64

	QueuesPerShard int // host queue pairs per shard (default 8)
	QueueDepth     int // per-queue depth (default 32)

	// CachePages enables each shard's host-side DRAM cache (per-shard
	// capacity in 16 KB pages; 0 disables).
	CachePages  int
	CachePolicy string // CacheLRU (default) | Cache2Q
	CacheMode   string // "through" (default) | "back"
	// CacheHitLatency is the DRAM service time charged to cache hits
	// (default 2 us).
	CacheHitLatency time.Duration

	// PrefillPages sequentially maps the first N pages of every shard
	// before replay (0 = none).
	PrefillPages int64
	// Repeat replays the trace N times back to back (default 1);
	// MaxRequests bounds the fleet-wide request count (0 = all).
	Repeat      int
	MaxRequests int

	// SampleInterval enables per-shard sim-clock sampling; the shard
	// streams merge into a deterministic fleet time series written to
	// StatsOut as JSONL. Defaults to 1ms when a sink is attached but no
	// interval given; 0 with no sink disables sampling.
	SampleInterval time.Duration
	// StatsOut receives the merged fleet series, one JSON object per
	// sampling interval (nil = discard the series).
	StatsOut io.Writer
	// Obs attaches a live /metrics endpoint (StartFleetObs) that serves
	// each shard's latest sample while the run is in flight.
	Obs *FleetObs
}

// FleetShardStats is one shard's summary of a fleet run.
type FleetShardStats struct {
	Shard     int
	Tenants   int
	Requests  int64
	HitRate   float64
	GCRuns    int64
	TraceHash uint64
	Degraded  bool
}

// FleetStats summarizes a fleet run. Report is the deterministic
// byte-stable rendering (fixed seed + trace => identical bytes); Wall
// is the measured host wall-clock time and is excluded from Report.
type FleetStats struct {
	Report   string
	Requests int64
	Reads    int64
	Writes   int64

	HitRate     float64
	FlushWrites int64

	ReadP50, ReadP99   time.Duration
	WriteP50, WriteP99 time.Duration

	SimElapsed time.Duration
	Wall       time.Duration
	// TraceHash chains every shard's arbitration hash in shard order.
	TraceHash uint64

	// SeriesSamples is the number of merged fleet time-series rows
	// collected (0 unless SampleInterval/StatsOut/Obs enabled sampling).
	SeriesSamples int

	Shards []FleetShardStats
}

// FleetObs is a live observability endpoint for a fleet run: while the
// shards replay, /metrics serves each shard's most recent sim-clock
// sample (progress, backlog, cache hit counters, windowed read p99)
// plus fleet aggregates, in Prometheus text exposition. Pass it via
// FleetOptions.Obs; Close it when done.
type FleetObs struct {
	live *fleet.LiveView
	srv  *telemetry.ObsServer
}

// StartFleetObs binds addr (host:port, :0 for ephemeral) and serves
// /metrics for a fleet of the given shard count.
func StartFleetObs(addr string, shards int) (*FleetObs, error) {
	if shards <= 0 {
		shards = fleet.DefaultConfig().Shards
	}
	o := &FleetObs{live: fleet.NewLiveView(shards), srv: telemetry.NewObsServer()}
	o.srv.SetMetrics(o.live.WriteMetrics)
	if _, err := o.srv.Start(addr); err != nil {
		return nil, err
	}
	return o, nil
}

// Addr returns the bound listen address.
func (o *FleetObs) Addr() string { return o.srv.Addr() }

// Close shuts the endpoint down.
func (o *FleetObs) Close() error { return o.srv.Close() }

func (o FleetOptions) toConfig() (fleet.Config, error) {
	mode, err := cache.ParseMode(o.CacheMode)
	if err != nil {
		return fleet.Config{}, err
	}
	return fleet.Config{
		Shards:          o.Shards,
		Tenants:         o.Tenants,
		Placement:       o.Placement,
		Seed:            o.Seed,
		Policy:          o.FTL,
		BlocksPerChip:   o.BlocksPerChip,
		Channels:        o.Channels,
		DiesPerChannel:  o.DiesPerChannel,
		CapacityJitter:  o.CapacityJitter,
		PE:              o.PE,
		RetentionMonths: o.RetentionMonths,
		AgeJitter:       o.AgeJitter,
		QueuesPerShard:  o.QueuesPerShard,
		QueueDepth:      o.QueueDepth,
		Cache: cache.Config{
			SizePages: o.CachePages,
			Policy:    o.CachePolicy,
			Mode:      mode,
		},
		CacheHitNs:   int64(o.CacheHitLatency),
		PrefillPages: o.PrefillPages,
		Repeat:       o.Repeat,
		MaxRequests:  o.MaxRequests,
	}, nil
}

// RunFleet parses a block trace from r and replays it across a fleet
// of opts.Shards simulated SSDs (each on its own goroutine), mapping
// synthesized tenants onto shards by the configured placement policy.
func RunFleet(opts FleetOptions, traceName string, r io.Reader, topt TraceReplayOptions) (FleetStats, error) {
	tr, err := topt.parse(traceName, r)
	if err != nil {
		return FleetStats{}, err
	}
	cfg, err := opts.toConfig()
	if err != nil {
		return FleetStats{}, err
	}
	cfg.SampleIntervalNs = int64(opts.SampleInterval)
	if cfg.SampleIntervalNs <= 0 && (opts.StatsOut != nil || opts.Obs != nil) {
		cfg.SampleIntervalNs = int64(time.Millisecond)
	}
	if opts.Obs != nil {
		cfg.Live = opts.Obs.live
	}
	res, err := fleet.Run(cfg, tr)
	if err != nil {
		return FleetStats{}, err
	}
	out := FleetStats{
		Report:      res.Report(),
		Requests:    res.Requests,
		Reads:       res.Reads,
		Writes:      res.Writes,
		HitRate:     res.HitRate(),
		FlushWrites: res.FlushWrites,
		ReadP50:     time.Duration(res.ReadLat.Percentile(50)),
		ReadP99:     time.Duration(res.ReadLat.Percentile(99)),
		WriteP50:    time.Duration(res.WriteLat.Percentile(50)),
		WriteP99:    time.Duration(res.WriteLat.Percentile(99)),
		SimElapsed:  time.Duration(res.SimElapsedNs),
		Wall:        time.Duration(res.WallNs),
		TraceHash:   res.TraceHash,
	}
	out.SeriesSamples = len(res.Series)
	if opts.StatsOut != nil {
		if err := res.SeriesJSONL(opts.StatsOut); err != nil {
			return FleetStats{}, err
		}
	}
	for _, s := range res.Shards {
		out.Shards = append(out.Shards, FleetShardStats{
			Shard:     s.Shard,
			Tenants:   s.Tenants,
			Requests:  s.Requests,
			HitRate:   s.CacheStats.HitRate(),
			GCRuns:    s.GCCount,
			TraceHash: s.TraceHash,
			Degraded:  s.Degraded,
		})
	}
	return out, nil
}
