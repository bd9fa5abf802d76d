package fleet

import (
	"bytes"
	"testing"

	"cubeftl/internal/telemetry"
)

// The merged fleet series must be byte-stable for a fixed seed+trace
// regardless of goroutine scheduling.
func TestFleetSeriesDeterministic(t *testing.T) {
	tr := synthTrace(1500)
	cfg := smallConfig()
	cfg.SampleIntervalNs = 3_000_000 // 3ms of simulated time

	var first []byte
	var hash uint64
	for i := 0; i < 2; i++ {
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := res.SeriesJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first, hash = buf.Bytes(), res.TraceHash
			if len(res.Series) == 0 {
				t.Fatal("sampling enabled but series empty")
			}
			last := res.Series[len(res.Series)-1]
			var completed float64
			for _, s := range last.Shards {
				completed += s.Metrics.Gauges["fleet/completed"]
			}
			if int64(completed) != res.Requests {
				t.Errorf("final series row completed=%v, result requests=%d",
					completed, res.Requests)
			}
			if len(last.Shards) != cfg.Shards {
				t.Errorf("final row carries %d shards, want %d", len(last.Shards), cfg.Shards)
			}
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("run %d: series JSONL differs", i)
		}
		if res.TraceHash != hash {
			t.Errorf("run %d: trace hash %016x != %016x", i, res.TraceHash, hash)
		}
	}
}

// Sampling is pure observation: enabling it must not perturb the
// replay. The grant-sequence hash and the report are the witnesses.
func TestFleetSamplingIsPassive(t *testing.T) {
	tr := synthTrace(1200)
	cfg := smallConfig()
	off, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SampleIntervalNs = 1_000_000
	on, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if off.TraceHash != on.TraceHash {
		t.Errorf("sampling perturbed replay: hash %016x vs %016x", off.TraceHash, on.TraceHash)
	}
	if off.Report() != on.Report() {
		t.Error("sampling changed the deterministic report")
	}
	if len(off.Series) != 0 {
		t.Errorf("sampling off but %d series rows", len(off.Series))
	}
}

// sample is a shard's sample at ts with completed requests and a read
// window of n observations with the given p99.
func sample(shard int, ts int64, completed float64, n, p99 int64) Sample {
	return Sample{Shard: shard, Sample: telemetry.Sample{TsNs: ts, Metrics: telemetry.Snapshot{
		Gauges: map[string]float64{"fleet/completed": completed},
		Hists:  map[string]telemetry.HistStat{windowRead: {N: n, P99: p99}, windowWrite: {}},
	}}}
}

// Carry-forward: a shard that quiesces early still appears in later
// rows with its counters standing and its window zeroed.
func TestFleetSeriesCarryForward(t *testing.T) {
	shards := []ShardResult{
		{Shard: 0, Samples: []Sample{sample(0, 10, 5, 5, 700), sample(0, 20, 9, 4, 900)}},
		{Shard: 1, Samples: []Sample{sample(1, 10, 3, 3, 400)}},
	}
	series := mergeSeries(shards)
	if len(series) != 2 {
		t.Fatalf("rows = %d", len(series))
	}
	row := series[1]
	if row.Interval != 1 || row.TsNs != 20 || len(row.Shards) != 2 {
		t.Errorf("row 1: interval %d ts %d with %d shards, want 1/20/2", row.Interval, row.TsNs, len(row.Shards))
	}
	carried := row.Shards[1]
	if carried.Shard != 1 || carried.Metrics.Gauges["fleet/completed"] != 3 || carried.Metrics.Hists[windowRead] != (telemetry.HistStat{}) {
		t.Errorf("carried sample not window-zeroed: %+v", carried)
	}
	if w := shards[1].Samples[0].Metrics.Hists[windowRead]; w.N != 3 || w.P99 != 400 {
		t.Errorf("carrying forward changed the shard's own sample: %+v", w)
	}
	if got := series[0].Shards[0].Metrics.Hists[windowRead].P99; got != 700 {
		t.Errorf("row 0 shard 0 window p99 = %d", got)
	}
}
