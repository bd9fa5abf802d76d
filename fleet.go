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
	// TimeCompression divides inter-arrival gaps: 10 replays a day-long
	// trace in 1/10 of its simulated span, 0.5 doubles every gap, 0 =
	// none. A negative or non-finite factor is an error.
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
	return s.run(tr.ToTrace(true), workload.RunConfig{Requests: tr.Len(), QueueDepth: depth})
}

// Placement policy names accepted by FleetOptions.Placement.
const (
	PlacementHash     = fleet.PlaceHash
	PlacementRange    = fleet.PlaceRange
	PlacementCapacity = fleet.PlaceCapacity
)

// Cache replacement policies and write disciplines accepted by
// FleetOptions.Cache (Policy, Mode).
const (
	CacheLRU          = cache.PolicyLRU
	Cache2Q           = cache.Policy2Q
	CacheWriteThrough = cache.WriteThrough // the default
	CacheWriteBack    = cache.WriteBack
)

// FleetOptions configures a sharded fleet run: the fleet's own
// configuration (see fleet.Config for every field; Policy takes any
// Options.FTL name, Cache.SizePages > 0 enables each shard's host-side
// DRAM cache) plus where its time series goes. The zero value selects
// 4 shards x 1024 tenants of cubeFTL devices with caching disabled.
type FleetOptions struct {
	fleet.Config
	// StatsOut receives the merged fleet series, one JSON object per
	// SampleIntervalNs of simulated time (nil = discard the series). The
	// interval defaults to 1ms when a sink — this or Obs — is attached
	// and none is given; 0 with no sink disables sampling.
	StatsOut io.Writer
	// Obs attaches a live /metrics endpoint (StartFleetObs) that serves
	// each shard's latest sample while the run is in flight.
	Obs *FleetObs
}

// FleetStats is a fleet run's result (fleet.Result): Report() is the
// deterministic byte-stable rendering (fixed seed + trace => identical
// bytes); WallNs, the measured host wall-clock time, is excluded from
// it. ReadLat / WriteLat merge every shard's latency distribution,
// TraceHash chains every shard's arbitration hash in shard order, Series
// holds the merged time series (empty unless sampling was on) and Shards
// the per-shard summaries.
type FleetStats = fleet.Result

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

// RunFleet parses a block trace from r and replays it across a fleet
// of opts.Shards simulated SSDs (each on its own goroutine), mapping
// synthesized tenants onto shards by the configured placement policy.
func RunFleet(opts FleetOptions, traceName string, r io.Reader, topt TraceReplayOptions) (*FleetStats, error) {
	tr, err := topt.parse(traceName, r)
	if err != nil {
		return nil, err
	}
	cfg := opts.Config
	if cfg.SampleIntervalNs <= 0 && (opts.StatsOut != nil || opts.Obs != nil) {
		cfg.SampleIntervalNs = int64(time.Millisecond)
	}
	if opts.Obs != nil {
		cfg.Live = opts.Obs.live
	}
	res, err := fleet.Run(cfg, tr)
	if err == nil && opts.StatsOut != nil {
		err = res.SeriesJSONL(opts.StatsOut)
	}
	return res, err
}
