package cubeftl

// Fleet-mode facade (DESIGN.md §14): real-trace replay onto a single
// simulated SSD or a sharded fleet of them, with host-side DRAM
// caching. Wraps internal/workload's trace parser and internal/fleet.

import (
	"io"
	"time"

	"cubeftl/internal/cache"
	"cubeftl/internal/fleet"
	"cubeftl/internal/workload"
)

// TraceFormatMSR names the one trace grammar, MSR-Cambridge CSV, in
// TraceReplayOptions.Format: an alias of the parser's name, so facade
// callers need no internal import.
const TraceFormatMSR = workload.FormatMSR

// Typed trace errors re-exported for errors.Is across the facade.
var (
	ErrTraceEmpty      = workload.ErrTraceEmpty
	ErrTraceRecord     = workload.ErrTraceRecord
	ErrTraceOutOfOrder = workload.ErrTraceOutOfOrder
	ErrTraceFormat     = workload.ErrTraceFormat
)

// TraceReplayOptions shapes trace ingestion for ReplayTrace / RunFleet.
type TraceReplayOptions struct {
	// Format names the trace grammar: "" or TraceFormatMSR. Any other
	// value is an ErrTraceFormat.
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
	// QueueDepth caps the requests outstanding at the device in a
	// single-device replay (default 32); records that arrive past the
	// cap wait in a backlog, and the trace's clock keeps running. Fleet
	// replay sizes its queues with FleetOptions.QueueDepth instead.
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

// ReplayTrace parses an MSR-Cambridge block trace from r and
// replays it open-loop against this SSD, the way a fleet shard replays
// its share: the trace's address space folds onto the device's logical
// pages, and every record arrives at its (compressed) time whether or
// not the device has caught up, through one host queue of
// opt.QueueDepth. Latency counts from admission to that queue. Returns
// the same RunStats as RunWorkload: Elapsed ends at the last request's
// completion, not at the drain of the writes still buffered.
func (s *SSD) ReplayTrace(name string, r io.Reader, opt TraceReplayOptions) (RunStats, error) {
	tr, err := opt.parse(name, r)
	if err != nil {
		return RunStats{}, err
	}
	if err := tr.Remap(int64(s.ctrl.LogicalPages()), opt.Tolerant); err != nil {
		return RunStats{}, err
	}
	if err := s.st.Up(); err != nil {
		return RunStats{}, err
	}
	res, err := fleet.Replay(s.ctrl, tr, opt.QueueDepth)
	if err != nil {
		return RunStats{}, err
	}
	return s.runStats(res.Requests, res.DoneNs, res.ReadLat, res.WriteLat, res.TraceHash), nil
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
	// SampleIntervalNs of simulated time (nil = discard the series): each
	// shard's sample has a single device's -stats-out schema plus the
	// shard's own ledgers, labelled with the shard. The interval
	// defaults to 1ms when StatsOut is set and none is given; 0 with no
	// StatsOut disables sampling.
	StatsOut io.Writer
}

// FleetStats is a fleet run's result (fleet.Result): Report() is the
// deterministic byte-stable rendering (fixed seed + trace => identical
// bytes); WallNs, the measured host wall-clock time, is excluded from
// it. ReadLat / WriteLat merge every shard's latency distribution,
// TraceHash chains every shard's arbitration hash in shard order, Series
// holds the merged time series (empty unless sampling was on) and Shards
// the per-shard summaries.
type FleetStats = fleet.Result

// RunFleet parses a block trace from r and replays it across a fleet
// of opts.Shards simulated SSDs (each on its own goroutine), mapping
// synthesized tenants onto shards by the configured placement policy.
func RunFleet(opts FleetOptions, traceName string, r io.Reader, topt TraceReplayOptions) (*FleetStats, error) {
	tr, err := topt.parse(traceName, r)
	if err != nil {
		return nil, err
	}
	cfg := opts.Config
	if cfg.SampleIntervalNs <= 0 && opts.StatsOut != nil {
		cfg.SampleIntervalNs = int64(time.Millisecond)
	}
	res, err := fleet.Run(cfg, tr)
	if err == nil && opts.StatsOut != nil {
		err = res.SeriesJSONL(opts.StatsOut)
	}
	return res, err
}
