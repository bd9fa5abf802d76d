package fleet

import (
	"fmt"
	"strings"

	"cubeftl/internal/cache"
	"cubeftl/internal/metrics"
	"cubeftl/internal/sim"
)

// ShardResult is one device's view of a fleet run.
type ShardResult struct {
	Shard         int
	Seed          uint64
	BlocksPerChip int
	PE            int
	LogicalPages  int64
	Tenants       int

	Requests int64
	Reads    int64
	Writes   int64

	// ReadLat / WriteLat are host-visible request latencies including
	// cache hits (charged at cacheHitNs).
	ReadLat  *metrics.Hist
	WriteLat *metrics.Hist

	CacheStats cache.Stats
	// FlushWrites counts dirty cache pages written to the device
	// (evictions plus the end-of-run flush); FlushRejects the subset a
	// degraded device refused.
	FlushWrites  int64
	FlushRejects int64
	// Defers counts requests parked by queue admission control.
	Defers int64

	ElapsedNs sim.Time // shard simulated time at quiesce
	// TraceHash fingerprints the shard's arbitration grant sequence.
	TraceHash uint64
	Grants    int64

	// Controller-level counters (post-prefill window).
	HostReads  int64
	HostWrites int64
	GCCount    int64
	Degraded   bool

	// Samples is the shard's sim-clock sample stream (empty unless
	// Config.SampleIntervalNs > 0). Always ends with a tail sample at
	// quiesce time.
	Samples []ShardSample
}

// Result aggregates a fleet run. Everything except WallNs is a pure
// function of (Config, trace) — the deterministic report.
type Result struct {
	Config    Config
	Placement string
	Shards    []ShardResult

	Requests int64
	Reads    int64
	Writes   int64

	// ReadLat / WriteLat merge every shard's distributions.
	ReadLat  *metrics.Hist
	WriteLat *metrics.Hist

	CacheStats  cache.Stats
	FlushWrites int64

	// SimElapsedNs is the slowest shard's simulated time — the fleet
	// finishes when its last device quiesces.
	SimElapsedNs sim.Time
	// TraceHash chains every shard's grant-sequence hash in shard
	// order: equal fleet hashes mean every shard replayed identically.
	TraceHash uint64

	// Series is the merged fleet time series (empty unless sampling was
	// enabled): per-shard streams folded in fixed shard order. Render
	// with SeriesJSONL.
	Series []FleetSample

	// WallNs is the measured host wall-clock time of the shard
	// goroutines. It is reported separately and never included in
	// Report(), because it is the one number scheduling may change.
	WallNs int64
}

// merge folds per-shard results in fixed shard order.
func merge(cfg Config, placement string, shards []ShardResult) *Result {
	res := &Result{
		Config:    cfg,
		Placement: placement,
		Shards:    shards,
		ReadLat:   metrics.NewHist(0),
		WriteLat:  metrics.NewHist(0),
		TraceHash: 14695981039346656037, // FNV-1a offset basis
	}
	for i := range shards {
		s := &shards[i]
		res.Requests += s.Requests
		res.Reads += s.Reads
		res.Writes += s.Writes
		res.ReadLat.Merge(s.ReadLat)
		res.WriteLat.Merge(s.WriteLat)
		addStats(&res.CacheStats, s.CacheStats)
		res.FlushWrites += s.FlushWrites
		if s.ElapsedNs > res.SimElapsedNs {
			res.SimElapsedNs = s.ElapsedNs
		}
		res.TraceHash = fnvMix(res.TraceHash, s.TraceHash)
	}
	res.Series = mergeSeries(shards)
	return res
}

func addStats(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.PartialHits += s.PartialHits
	dst.WriteHits += s.WriteHits
	dst.WriteAllocs += s.WriteAllocs
	dst.Inserts += s.Inserts
	dst.Evictions += s.Evictions
	dst.DirtyEvictions += s.DirtyEvictions
	dst.FlushedPages += s.FlushedPages
}

// HitRate is the fleet-wide read hit rate.
func (r *Result) HitRate() float64 { return r.CacheStats.HitRate() }

// Report renders the deterministic fleet summary: byte-stable for a
// fixed (Config, trace) regardless of goroutine scheduling. Wall-clock
// time is deliberately absent — print WallNs separately.
func (r *Result) Report() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "fleet: shards=%d tenants=%d placement=%s seed=%d policy=%s blocks=%d\n",
		c.Shards, c.Tenants, r.Placement, c.Seed, c.Policy, c.BlocksPerChip)
	cacheLine := "off"
	if c.Cache.SizePages > 0 {
		pol := c.Cache.Policy
		if pol == "" {
			pol = cache.PolicyLRU
		}
		cacheLine = fmt.Sprintf("%s/%s size=%d", pol, c.Cache.Mode, c.Cache.SizePages)
	}
	fmt.Fprintf(&b, "cache: %s hit_rate=%.4f hits=%d misses=%d partial=%d dirty_evict=%d flush_pages=%d\n",
		cacheLine, r.HitRate(), r.CacheStats.Hits, r.CacheStats.Misses,
		r.CacheStats.PartialHits, r.CacheStats.DirtyEvictions, r.FlushWrites)
	fmt.Fprintf(&b, "totals: requests=%d reads=%d writes=%d sim_elapsed_ms=%.3f trace_hash=%016x\n",
		r.Requests, r.Reads, r.Writes, float64(r.SimElapsedNs)/1e6, r.TraceHash)
	fmt.Fprintf(&b, "read_lat_us: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		us(r.ReadLat, 50), us(r.ReadLat, 95), us(r.ReadLat, 99), float64(histMax(r.ReadLat))/1e3)
	fmt.Fprintf(&b, "write_lat_us: p50=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		us(r.WriteLat, 50), us(r.WriteLat, 95), us(r.WriteLat, 99), float64(histMax(r.WriteLat))/1e3)
	for i := range r.Shards {
		s := &r.Shards[i]
		fmt.Fprintf(&b, "shard %d: seed=%016x blocks=%d tenants=%d reqs=%d (%dr/%dw) hit_rate=%.4f defers=%d gc=%d hostw=%d elapsed_ms=%.3f trace_hash=%016x degraded=%v\n",
			s.Shard, s.Seed, s.BlocksPerChip, s.Tenants, s.Requests, s.Reads, s.Writes,
			s.CacheStats.HitRate(), s.Defers, s.GCCount, s.HostWrites,
			float64(s.ElapsedNs)/1e6, s.TraceHash, s.Degraded)
	}
	return b.String()
}

func us(h *metrics.Hist, p float64) float64 {
	if h == nil || h.N() == 0 {
		return 0
	}
	return float64(h.Percentile(p)) / 1e3
}

func histMax(h *metrics.Hist) int64 {
	if h == nil || h.N() == 0 {
		return 0
	}
	return h.Max()
}
