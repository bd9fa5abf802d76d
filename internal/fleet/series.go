package fleet

// Fleet-wide observability (DESIGN.md §16): each shard samples its own
// state on its private sim clock (eng.SetProbe), and the per-shard
// streams merge — in fixed shard order, interval-indexed, with
// carry-forward for shards that quiesce early — into one deterministic
// fleet time series. A LiveView additionally publishes each shard's
// latest sample lock-free so a /metrics scrape can watch a run in
// flight without perturbing it.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"cubeftl/internal/metrics"
	"cubeftl/internal/sim"
	"cubeftl/internal/telemetry"
)

// ShardSample is one shard's state at a sim-clock sampling boundary.
// Counters are cumulative since replay start; the latency quantiles
// are windowed — they cover only the interval since the previous
// sample, so they reflect current conditions.
type ShardSample struct {
	Shard int   `json:"shard"`
	TsNs  int64 `json:"ts_ns"`

	Completed   int64 `json:"completed"`
	Reads       int64 `json:"reads"`
	Writes      int64 `json:"writes"`
	Backlog     int   `json:"backlog"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	FlushWrites int64 `json:"flush_writes"`
	GCCount     int64 `json:"gc"`
	Degraded    bool  `json:"degraded,omitempty"`

	WindowIOs  int64 `json:"window_ios"`
	ReadP50Ns  int64 `json:"read_p50_ns"`
	ReadP99Ns  int64 `json:"read_p99_ns"`
	WriteP99Ns int64 `json:"write_p99_ns"`

	// Per-cause write-amplification ledger (cumulative bytes) and the
	// erase-count spread wear leveling narrows. Appended fields: the
	// JSONL schema grows at the end only.
	WafHostBytes    int64 `json:"waf_host_bytes"`
	WafGCBytes      int64 `json:"waf_gc_bytes"`
	WafRefreshBytes int64 `json:"waf_refresh_bytes"`
	WafWLBytes      int64 `json:"waf_wl_bytes"`
	EraseSpread     int   `json:"erase_spread"`
}

// FleetSample is one merged row of the fleet series: per-shard rows at
// the same interval index plus their aggregates. Window quantiles
// aggregate as maxima (a p99 of p99s is not a fleet p99; the max is an
// honest bound), counters as sums.
type FleetSample struct {
	Interval int   `json:"interval"`
	TsNs     int64 `json:"ts_ns"`

	Completed      int64 `json:"completed"`
	Reads          int64 `json:"reads"`
	Writes         int64 `json:"writes"`
	Backlog        int   `json:"backlog"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	FlushWrites    int64 `json:"flush_writes"`
	GCCount        int64 `json:"gc"`
	DegradedShards int   `json:"degraded_shards"`

	WindowIOs    int64 `json:"window_ios"`
	ReadP99NsMax int64 `json:"read_p99_ns_max"`

	WafHostBytes    int64 `json:"waf_host_bytes"`
	WafGCBytes      int64 `json:"waf_gc_bytes"`
	WafRefreshBytes int64 `json:"waf_refresh_bytes"`
	WafWLBytes      int64 `json:"waf_wl_bytes"`
	EraseSpreadMax  int   `json:"erase_spread_max"`

	Shards []ShardSample `json:"shards"`
}

// shardSampler collects one shard's sample stream. It lives entirely
// on the shard's goroutine; only the LiveView publication crosses
// goroutines, via an atomic pointer store of an immutable sample.
type shardSampler struct {
	r       *shardRunner
	live    *LiveView
	samples []ShardSample

	winRead  *metrics.Hist
	winWrite *metrics.Hist
}

func newShardSampler(r *shardRunner, live *LiveView) *shardSampler {
	return &shardSampler{
		r:        r,
		live:     live,
		winRead:  metrics.NewHist(0),
		winWrite: metrics.NewHist(0),
	}
}

// observe mirrors one completion's latency into the current window.
func (sm *shardSampler) observe(write bool, latNs int64) {
	if sm == nil {
		return
	}
	if write {
		sm.winWrite.Add(latNs)
	} else {
		sm.winRead.Add(latNs)
	}
}

// take snapshots the shard at boundary time at and resets the window.
func (sm *shardSampler) take(at sim.Time) {
	r := sm.r
	var backlog int
	for i := range r.backlog {
		backlog += r.backlog[i].Len()
	}
	cs := r.cache.Stats()
	st := r.ctrl.Stats()
	waf := r.ctrl.WAF()
	wearLo, wearHi := r.ctrl.WearSpread()
	s := ShardSample{
		Shard:       r.spec.id,
		TsNs:        int64(at),
		Completed:   r.completed,
		Reads:       r.reads,
		Writes:      r.writes,
		Backlog:     backlog,
		CacheHits:   cs.Hits,
		CacheMisses: cs.Misses,
		FlushWrites: r.flushWrites,
		GCCount:     st.GCCount,
		Degraded:    r.ctrl.Degraded(),
		WindowIOs:   sm.winRead.N() + sm.winWrite.N(),
		ReadP50Ns:   sm.winRead.Percentile(50),
		ReadP99Ns:   sm.winRead.Percentile(99),
		WriteP99Ns:  sm.winWrite.Percentile(99),

		WafHostBytes:    waf.HostBytes,
		WafGCBytes:      waf.GCBytes,
		WafRefreshBytes: waf.RefreshBytes,
		WafWLBytes:      waf.WLBytes,
		EraseSpread:     wearHi - wearLo,
	}
	sm.winRead.Reset()
	sm.winWrite.Reset()
	sm.samples = append(sm.samples, s)
	sm.live.publish(&sm.samples[len(sm.samples)-1])
}

// mergeSeries folds per-shard sample streams into the fleet series.
// Row k takes each shard's k-th sample; a shard that quiesced early
// carries its last sample forward with the window fields zeroed (no
// new observations, but its counters still stand).
func mergeSeries(shards []ShardResult) []FleetSample {
	rows := 0
	for i := range shards {
		if n := len(shards[i].Samples); n > rows {
			rows = n
		}
	}
	if rows == 0 {
		return nil
	}
	series := make([]FleetSample, 0, rows)
	for k := 0; k < rows; k++ {
		f := FleetSample{Interval: k}
		for i := range shards {
			ss := shards[i].Samples
			if len(ss) == 0 {
				continue
			}
			var s ShardSample
			if k < len(ss) {
				s = ss[k]
			} else {
				s = ss[len(ss)-1] // carried forward: counters stand,
				s.WindowIOs = 0   // but the window saw nothing new
				s.ReadP50Ns, s.ReadP99Ns, s.WriteP99Ns = 0, 0, 0
			}
			if s.TsNs > f.TsNs {
				f.TsNs = s.TsNs
			}
			f.Completed += s.Completed
			f.Reads += s.Reads
			f.Writes += s.Writes
			f.Backlog += s.Backlog
			f.CacheHits += s.CacheHits
			f.CacheMisses += s.CacheMisses
			f.FlushWrites += s.FlushWrites
			f.GCCount += s.GCCount
			if s.Degraded {
				f.DegradedShards++
			}
			f.WindowIOs += s.WindowIOs
			if s.ReadP99Ns > f.ReadP99NsMax {
				f.ReadP99NsMax = s.ReadP99Ns
			}
			f.WafHostBytes += s.WafHostBytes
			f.WafGCBytes += s.WafGCBytes
			f.WafRefreshBytes += s.WafRefreshBytes
			f.WafWLBytes += s.WafWLBytes
			if s.EraseSpread > f.EraseSpreadMax {
				f.EraseSpreadMax = s.EraseSpread
			}
			f.Shards = append(f.Shards, s)
		}
		series = append(series, f)
	}
	return series
}

// SeriesJSONL writes the merged fleet series as one JSON object per
// line. Byte-stable for a fixed (Config, trace): struct field order is
// fixed and no wall-clock value appears.
func (r *Result) SeriesJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.Series {
		if err := enc.Encode(&r.Series[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LiveView publishes each shard's most recent sample for concurrent
// readers (the /metrics endpoint) while a fleet run is in flight.
// Writers store immutable sample pointers; readers never block a
// shard. The live view is an observation channel only — it does not
// participate in the deterministic merged series.
type LiveView struct {
	latest []atomic.Pointer[ShardSample]
}

// NewLiveView sizes the view for a fleet of the given shard count.
func NewLiveView(shards int) *LiveView {
	return &LiveView{latest: make([]atomic.Pointer[ShardSample], shards)}
}

func (v *LiveView) publish(s *ShardSample) {
	if v == nil || s.Shard >= len(v.latest) {
		return
	}
	v.latest[s.Shard].Store(s)
}

// Snapshot returns the latest sample from every shard that has taken
// one, in shard order.
func (v *LiveView) Snapshot() []ShardSample {
	var out []ShardSample
	for i := range v.latest {
		if s := v.latest[i].Load(); s != nil {
			out = append(out, *s)
		}
	}
	return out
}

// WriteMetrics renders the live fleet view in Prometheus text
// exposition: per-shard progress/latency families plus aggregates.
func (v *LiveView) WriteMetrics(w io.Writer) error {
	snap := v.Snapshot()
	one := func(name, typ, help string, val float64) telemetry.PromFamily {
		return telemetry.PromFamily{Name: name, Type: typ, Help: help,
			Samples: []telemetry.PromSample{{Value: val}}}
	}
	mk := func(name, typ, help string) *telemetry.PromFamily {
		return &telemetry.PromFamily{Name: name, Type: typ, Help: help}
	}
	simNs := mk("cube_fleet_shard_sim_ns", "gauge", "shard simulated clock at last sample")
	completed := mk("cube_fleet_shard_completed", "gauge", "requests completed")
	backlog := mk("cube_fleet_shard_backlog", "gauge", "requests parked by admission control")
	cacheHits := mk("cube_fleet_shard_cache_hits", "gauge", "host cache read hits")
	cacheMisses := mk("cube_fleet_shard_cache_misses", "gauge", "host cache read misses")
	gc := mk("cube_fleet_shard_gc", "gauge", "GC runs")
	degraded := mk("cube_fleet_shard_degraded", "gauge", "shard device degraded")
	readP99 := mk("cube_fleet_shard_read_p99_ns", "gauge", "windowed read p99 at last sample")
	windowIOs := mk("cube_fleet_shard_window_ios", "gauge", "completions in the last sample window")
	eraseSpread := mk("cube_fleet_shard_erase_spread", "gauge", "erase-count spread over the shard's good blocks")
	var total, reads, writes, hits, misses int64
	var degradedShards int
	var p99Max int64
	var wafHost, wafGC, wafRefresh, wafWL int64
	var spreadMax int
	for i := range snap {
		s := &snap[i]
		l := []telemetry.PromLabel{{K: "shard", V: fmt.Sprint(s.Shard)}}
		add := func(f *telemetry.PromFamily, val float64) {
			f.Samples = append(f.Samples, telemetry.PromSample{Labels: l, Value: val})
		}
		add(simNs, float64(s.TsNs))
		add(completed, float64(s.Completed))
		add(backlog, float64(s.Backlog))
		add(cacheHits, float64(s.CacheHits))
		add(cacheMisses, float64(s.CacheMisses))
		add(gc, float64(s.GCCount))
		add(readP99, float64(s.ReadP99Ns))
		add(windowIOs, float64(s.WindowIOs))
		dg := 0.0
		if s.Degraded {
			dg, degradedShards = 1.0, degradedShards+1
		}
		add(degraded, dg)
		add(eraseSpread, float64(s.EraseSpread))
		total += s.Completed
		reads += s.Reads
		writes += s.Writes
		hits += s.CacheHits
		misses += s.CacheMisses
		if s.ReadP99Ns > p99Max {
			p99Max = s.ReadP99Ns
		}
		wafHost += s.WafHostBytes
		wafGC += s.WafGCBytes
		wafRefresh += s.WafRefreshBytes
		wafWL += s.WafWLBytes
		if s.EraseSpread > spreadMax {
			spreadMax = s.EraseSpread
		}
	}
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fams := []telemetry.PromFamily{
		one("cube_fleet_shards", "gauge", "shards reporting", float64(len(snap))),
		one("cube_fleet_completed", "gauge", "fleet requests completed", float64(total)),
		one("cube_fleet_reads", "gauge", "fleet reads completed", float64(reads)),
		one("cube_fleet_writes", "gauge", "fleet writes completed", float64(writes)),
		one("cube_fleet_cache_hit_rate", "gauge", "fleet read hit rate", hitRate),
		one("cube_fleet_degraded_shards", "gauge", "shards with a degraded device", float64(degradedShards)),
		one("cube_fleet_read_p99_ns_max", "gauge", "worst windowed read p99 across shards", float64(p99Max)),
		one("cube_fleet_waf_host_bytes", "gauge", "fleet bytes programmed for host writes", float64(wafHost)),
		one("cube_fleet_waf_gc_bytes", "gauge", "fleet bytes moved by GC and reclaim", float64(wafGC)),
		one("cube_fleet_waf_refresh_bytes", "gauge", "fleet bytes moved by retention refresh", float64(wafRefresh)),
		one("cube_fleet_waf_wl_bytes", "gauge", "fleet bytes moved by static wear leveling", float64(wafWL)),
		one("cube_fleet_erase_spread_max", "gauge", "worst erase-count spread across shards", float64(spreadMax)),
		*simNs, *completed, *backlog, *cacheHits, *cacheMisses, *gc, *degraded, *readP99, *windowIOs, *eraseSpread,
	}
	return telemetry.WriteProm(w, fams)
}
