package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cubeftl/internal/cache"
	"cubeftl/internal/metrics"
	"cubeftl/internal/pool"
	"cubeftl/internal/workload"
)

// synthTrace builds a deterministic in-memory trace: n requests over
// a handful of source streams, mixed reads/writes, nondecreasing
// arrivals, hot/cold source extents.
func synthTrace(n int) *workload.TimedTrace {
	tr := &workload.TimedTrace{Name: "synth"}
	state := uint64(0xC0FFEE)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for _, host := range []string{"usr", "proj", "web"} {
		for disk := 0; disk < 2; disk++ {
			tr.Sources = append(tr.Sources, workload.Source{Host: host, Disk: disk})
		}
	}
	at := int64(0)
	for i := 0; i < n; i++ {
		op := workload.Read
		if next()%100 < 35 {
			op = workload.Write
		}
		var lpn int64
		if next()%100 < 70 {
			lpn = int64(next() % 4096) // hot region
		} else {
			lpn = int64(next() % 1_000_000) // cold span
		}
		host := int(next()) % 3
		disk := int(next() % 2)
		tr.Reqs = append(tr.Reqs, workload.TimedRequest{
			AtNs:   at,
			Source: int32(2*host + disk),
			Op:     op,
			LPN:    lpn,
			Pages:  int(next()%3) + 1,
		})
		at += int64(next() % 40_000) // 0-40 us gaps
		tr.SpanNs = at
	}
	return tr
}

func smallConfig() Config {
	return Config{
		Shards:         2,
		Tenants:        64,
		Seed:           7,
		BlocksPerChip:  12,
		Channels:       1,
		DiesPerChannel: 2,
		QueuesPerShard: 4,
		Cache:          cache.Config{SizePages: 512, Policy: cache.Policy2Q, Mode: cache.WriteBack},
	}
}

func TestFleetDeterminism(t *testing.T) {
	// Same seed + same trace must yield byte-identical reports and
	// identical per-shard grant hashes no matter how the runtime
	// schedules the shard goroutines. Run three times (and under -race
	// in race-core) to give the scheduler chances to diverge.
	tr := synthTrace(1500)
	cfg := smallConfig()
	var report string
	var hash uint64
	var shardHashes []uint64
	for i := 0; i < 4; i++ {
		if i == 3 {
			// With one spare record per free list, miss records are built
			// afresh instead of reused: reuse must not be what the result
			// depends on, and a record stepped after release would panic.
			defer pool.LimitFreeListsForTest(1)()
		}
		res, err := Run(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			report, hash = res.Report(), res.TraceHash
			for _, s := range res.Shards {
				shardHashes = append(shardHashes, s.TraceHash)
			}
			continue
		}
		if got := res.Report(); got != report {
			t.Fatalf("run %d report diverged:\n--- first ---\n%s--- now ---\n%s", i, report, got)
		}
		if res.TraceHash != hash {
			t.Errorf("run %d fleet trace hash %016x != %016x", i, res.TraceHash, hash)
		}
		for j, s := range res.Shards {
			if s.TraceHash != shardHashes[j] {
				t.Errorf("run %d shard %d trace hash diverged", i, j)
			}
		}
	}
}

func TestFleetSeedChangesOutcome(t *testing.T) {
	tr := synthTrace(600)
	cfg := smallConfig()
	a, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() == b.Report() {
		t.Errorf("different seeds produced identical reports")
	}
}

func TestFleetCompletesEveryRequest(t *testing.T) {
	tr := synthTrace(800)
	res, err := Run(smallConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 800 {
		t.Errorf("completed %d of 800", res.Requests)
	}
	if res.Reads+res.Writes != res.Requests {
		t.Errorf("op split %d+%d != %d", res.Reads, res.Writes, res.Requests)
	}
	var perShard int64
	for _, s := range res.Shards {
		perShard += s.Requests
		if s.Requests > 0 && s.Tenants == 0 {
			t.Errorf("shard %d served requests with zero tenants", s.Shard)
		}
	}
	if perShard != res.Requests {
		t.Errorf("shard sum %d != total %d", perShard, res.Requests)
	}
}

func TestFleetCacheAbsorbsTraffic(t *testing.T) {
	tr := synthTrace(1000)
	cfg := smallConfig()

	cfg.Cache = cache.Config{}
	cold, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheStats.Hits != 0 || cold.HitRate() != 0 {
		t.Errorf("disabled cache reported hits: %+v", cold.CacheStats)
	}

	cfg.Cache = cache.Config{SizePages: 2048, Policy: cache.Policy2Q, Mode: cache.WriteBack}
	warm, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if warm.HitRate() <= 0 {
		t.Fatalf("hot-region workload should hit a 2048-page cache: %+v", warm.CacheStats)
	}
	var hostIO, coldIO int64
	for _, s := range warm.Shards {
		hostIO += s.HostReads + s.HostWrites
	}
	for _, s := range cold.Shards {
		coldIO += s.HostReads + s.HostWrites
	}
	if hostIO >= coldIO {
		t.Errorf("cache did not reduce device IO: %d cached vs %d uncached", hostIO, coldIO)
	}
	if warm.Requests != cold.Requests {
		t.Errorf("caching changed completion count: %d vs %d", warm.Requests, cold.Requests)
	}
}

func TestFleetRepeatScalesVolume(t *testing.T) {
	tr := synthTrace(300)
	cfg := smallConfig()
	cfg.Repeat = 3
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 900 {
		t.Errorf("repeat x3 completed %d, want 900", res.Requests)
	}
}

func TestPlacementPolicies(t *testing.T) {
	const shards, tenants = 4, 400
	for _, name := range []string{PlaceHash, PlaceCapacity} {
		p, err := NewPlacement(name, shards, tenants, []int64{16, 16, 16, 16}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		counts := make([]int, shards)
		for tn := 0; tn < tenants; tn++ {
			s := p.Shard(tn)
			if s < 0 || s >= shards {
				t.Fatalf("%s: tenant %d -> shard %d out of range", name, tn, s)
			}
			if s != p.Shard(tn) {
				t.Fatalf("%s: unstable placement", name)
			}
			counts[s]++
		}
		for s, n := range counts {
			if n == 0 {
				t.Errorf("%s: shard %d got no tenants", name, s)
			}
		}
	}
	for _, name := range []string{"round-robin", "range"} {
		if _, err := NewPlacement(name, shards, tenants, nil, 1); !errors.Is(err, ErrBadPlacement) {
			t.Errorf("placement %q: got %v, want ErrBadPlacement", name, err)
		}
	}
}

func TestCapacityPlacementFollowsWeights(t *testing.T) {
	// Shard 0 has 3x the capacity of each other shard; it should own
	// roughly half the tenants (3 of 6 total weight).
	p, err := NewPlacement(PlaceCapacity, 4, 600, []int64{48, 16, 16, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for tn := 0; tn < 600; tn++ {
		counts[p.Shard(tn)]++
	}
	if counts[0] < 280 || counts[0] > 320 {
		t.Errorf("heavy shard owns %d of 600 tenants, want ~300 (counts %v)", counts[0], counts)
	}
}

func TestFleetErrors(t *testing.T) {
	if _, err := Run(Config{}, nil); !errors.Is(err, ErrNoTrace) {
		t.Errorf("nil trace: got %v", err)
	}
	if _, err := Run(Config{}, &workload.TimedTrace{}); !errors.Is(err, ErrNoTrace) {
		t.Errorf("empty trace: got %v", err)
	}
	cfg := smallConfig()
	cfg.Shards = 8
	cfg.Tenants = 4
	if _, err := Run(cfg, synthTrace(10)); !errors.Is(err, ErrBadConfig) {
		t.Errorf("tenants < shards: got %v", err)
	}
	cfg = smallConfig()
	cfg.Policy = "clockFTL"
	if _, err := Run(cfg, synthTrace(10)); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("bad policy: got %v", err)
	}
	cfg = smallConfig()
	cfg.Placement = "static"
	if _, err := Run(cfg, synthTrace(10)); !errors.Is(err, ErrBadPlacement) {
		t.Errorf("bad placement: got %v", err)
	}

	// TimedTrace.Reqs is an exported slice: a hand-built trace can break
	// the ordering the parser guarantees. That is an error naming the
	// record, not a panic from the engine's arrival stream.
	tr := synthTrace(10)
	tr.Reqs[6].AtNs = tr.Reqs[5].AtNs - 1
	_, err := Run(smallConfig(), tr)
	if !errors.Is(err, workload.ErrTraceOutOfOrder) || !strings.Contains(fmt.Sprint(err), "record 6") {
		t.Errorf("out-of-order record: got %v", err)
	}
	tr = synthTrace(10)
	tr.Reqs[4].Source = int32(len(tr.Sources))
	if _, err := Run(smallConfig(), tr); !errors.Is(err, workload.ErrTraceRecord) || !strings.Contains(fmt.Sprint(err), "record 4") {
		t.Errorf("record naming no source: got %v", err)
	}
	tr = synthTrace(10)
	tr.Reqs[0].AtNs = -5
	if _, err := Run(smallConfig(), tr); !errors.Is(err, workload.ErrTraceOutOfOrder) {
		t.Errorf("arrival before time zero: got %v", err)
	}
	// A span shorter than the last arrival would start the second pass
	// before the first has ended; one pass of the same trace is fine.
	tr = synthTrace(10)
	tr.SpanNs = tr.Reqs[9].AtNs / 2
	if _, err := Run(smallConfig(), tr); err != nil {
		t.Errorf("single pass over a short-span trace: %v", err)
	}
	cfg = smallConfig()
	cfg.Repeat = 2
	if _, err := Run(cfg, tr); !errors.Is(err, workload.ErrTraceOutOfOrder) {
		t.Errorf("overlapping passes: got %v", err)
	}
}

// TestFleetMSRFixtureSmoke is the acceptance-shaped end-to-end: the
// checked-in MSR fixture replayed across 8 shards and >= 1000 tenants.
func TestFleetMSRFixtureSmoke(t *testing.T) {
	tr := msrFixture(t)
	cfg := Config{
		Shards:         8,
		Tenants:        1024,
		Seed:           1,
		BlocksPerChip:  8,
		Channels:       1,
		DiesPerChannel: 2,
		QueuesPerShard: 4,
		Cache:          cache.Config{SizePages: 1024, Policy: cache.Policy2Q, Mode: cache.WriteBack},
	}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(tr.Len()) {
		t.Errorf("completed %d of %d", res.Requests, tr.Len())
	}
	if len(res.Shards) != 8 {
		t.Fatalf("got %d shards", len(res.Shards))
	}
	tenants := 0
	for _, s := range res.Shards {
		tenants += s.Tenants
		if s.Requests > 0 && s.TraceHash == 0 && s.Defers == 0 && s.CacheStats.Hits == s.Requests {
			t.Errorf("shard %d looks like it bypassed the device entirely", s.Shard)
		}
	}
	if tenants == 0 {
		t.Fatalf("no tenants materialized")
	}
	if res.ReadLat.N() == 0 {
		t.Errorf("no read latency samples")
	}
	if res.Report() == "" {
		t.Errorf("empty report")
	}
}

// The fleet's cache ledger is its shards' sum, field by field: with every
// field of each shard's cache.Stats set to a count of its own, each
// tagged field merge reports must be the shards' sum. A field added to the
// ledger and not to Stats.Add fails here.
func TestFleetCacheStatsAreTheShardsSum(t *testing.T) {
	shards := make([]ShardResult, 3)
	for i := range shards {
		shards[i].ReadLat, shards[i].WriteLat = metrics.NewHist(0), metrics.NewHist(0)
		v := reflect.ValueOf(&shards[i].CacheStats).Elem()
		for f := 0; f < v.NumField(); f++ {
			if n := int64(100*(i+1) + f + 1); v.Field(f).CanInt() {
				v.Field(f).SetInt(n)
			} else {
				v.Field(f).SetFloat(float64(n))
			}
		}
	}
	res := merge(smallConfig(), "hash", shards)
	tagged := 0
	for f, row := range metrics.Walk(&res.CacheStats) {
		if row.Name == "" {
			continue
		}
		tagged++
		var want float64
		for i := range shards {
			want += metrics.Walk(&shards[i].CacheStats)[f].Get()
		}
		if got := row.Get(); got != want {
			t.Errorf("%s (%s): fleet %v, shards sum to %v", row.Field, row.Name, got, want)
		}
	}
	if tagged == 0 {
		t.Fatal("cache.Stats has no tagged field")
	}
}
