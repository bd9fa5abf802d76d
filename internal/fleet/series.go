package fleet

// Fleet-wide observability (DESIGN.md §16): a sampled shard attaches a
// telemetry hub to its stack the way a single device does
// (stack.Stack.SetTelemetry), registers its own ledgers beside the
// device's, and hands one telemetry.Sample per interval of its private
// sim clock to its sink. The per-shard streams merge — in fixed shard
// order, interval-indexed, with carry-forward for shards that quiesce
// early — into one deterministic fleet series.

import (
	"bufio"
	"encoding/json"
	"io"
	"maps"

	"cubeftl/internal/cache"
	"cubeftl/internal/metrics"
	"cubeftl/internal/sim"
	"cubeftl/internal/telemetry"
)

// ShardStats is a shard's own ledger (metrics.Walk): what it replayed.
// A sampled shard's registry carries it beside the device's ledgers.
type ShardStats struct {
	Requests int64 `metric:"fleet/completed gauge requests completed"`
	Reads    int64 `metric:"fleet/reads gauge reads completed"`
	Writes   int64 `metric:"fleet/writes gauge writes completed"`
	// FlushWrites counts dirty cache pages written to the device
	// (evictions plus the end-of-run flush); FlushRejects those a
	// degraded device refused.
	FlushWrites  int64 `metric:"fleet/flush_writes gauge dirty cache pages written to the device"`
	FlushRejects int64 `metric:"fleet/flush_rejects gauge dirty cache pages a degraded device refused"`
	// Defers counts requests parked by queue admission control.
	Defers int64 `metric:"fleet/defers gauge requests parked by queue admission control"`
}

// The latency windows a sampled shard registers: host-visible read and
// write latency since its previous sample. A carried-forward sample
// zeroes them.
const (
	windowRead  = "fleet/window/read_ns"
	windowWrite = "fleet/window/write_ns"
)

// Sample is one shard's telemetry.Sample — the schema of a single
// device's -stats-out line — labelled with the shard.
type Sample struct {
	Shard int `json:"shard"`
	telemetry.Sample
}

// Row is one interval of the fleet series: every shard's sample at
// interval index Interval, in shard order. TsNs is the latest of their
// clocks. A fleet total is a fold over Shards.
type Row struct {
	Interval int      `json:"interval"`
	TsNs     int64    `json:"ts_ns"`
	Shards   []Sample `json:"shards"`
}

// shardSampler keeps one shard's samples. It lives on the shard's
// goroutine.
type shardSampler struct {
	*telemetry.Sampler // Close takes the tail sample
	id                 int
	samples            []Sample

	winRead  *metrics.Hist
	winWrite *metrics.Hist
}

// startSampler registers the shard's numbers in the registry of the hub
// attached to its stack — its ledger, its cache's, the requests parked
// now, the erase-count spread wear leveling narrows, and its latency
// windows — and samples every Config.SampleIntervalNs.
func (r *shardRunner) startSampler(hub *telemetry.Hub) {
	sm := &shardSampler{id: r.spec.id, winRead: metrics.NewHist(0), winWrite: metrics.NewHist(0)}
	reg := hub.Registry()
	reg.MustRegisterStruct("", &r.stats, nil)
	cs := new(cache.Stats)
	reg.MustRegisterStruct("", cs, func() { *cs = r.cache.Stats() })
	reg.RegisterGauge("fleet/backlog", func() float64 {
		var n int
		for i := range r.backlog {
			n += r.backlog[i].Len()
		}
		return float64(n)
	})
	reg.RegisterGauge("fleet/erase_spread", func() float64 {
		lo, hi := r.ctrl.WearSpread()
		return float64(hi - lo)
	})
	reg.RegisterHist(windowRead, func() *metrics.Hist { return sm.winRead })
	reg.RegisterHist(windowWrite, func() *metrics.Hist { return sm.winWrite })
	sm.Sampler = hub.StartSampler(sim.Time(r.cfg.SampleIntervalNs), sm.take)
	r.sampler = sm
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

// take is the shard's sink: it keeps the sample and opens the next
// window.
func (sm *shardSampler) take(s telemetry.Sample) error {
	sm.samples = append(sm.samples, Sample{Shard: sm.id, Sample: s})
	sm.winRead.Reset()
	sm.winWrite.Reset()
	return nil
}

// mergeSeries folds per-shard sample streams into the fleet series.
// Row k takes each shard's k-th sample; a shard that quiesced early
// carries its last sample forward with its latency windows zeroed (no
// new observations, but its counters still stand).
func mergeSeries(shards []ShardResult) []Row {
	rows := 0
	for i := range shards {
		rows = max(rows, len(shards[i].Samples))
	}
	series := make([]Row, rows)
	for k := range series {
		row := &series[k]
		row.Interval = k
		for i := range shards {
			ss := shards[i].Samples
			if len(ss) == 0 {
				continue
			}
			s := ss[min(k, len(ss)-1)]
			if k >= len(ss) {
				s.Metrics.Hists = maps.Clone(s.Metrics.Hists)
				s.Metrics.Hists[windowRead] = telemetry.HistStat{}
				s.Metrics.Hists[windowWrite] = telemetry.HistStat{}
			}
			row.TsNs = max(row.TsNs, s.TsNs)
			row.Shards = append(row.Shards, s)
		}
	}
	return series
}

// SeriesJSONL writes the merged fleet series as one JSON object per
// line. Byte-stable for a fixed (Config, trace): struct field order is
// fixed, map keys are sorted, and no wall-clock value appears.
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
