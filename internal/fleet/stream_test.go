package fleet

import (
	"os"
	"runtime"
	"testing"

	"cubeftl/internal/cache"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/workload"
)

// timedReq is one element of the expansion: a request and its arrival
// time relative to replay start.
type timedReq struct {
	at sim.Time
	shardReq
}

// refAssignRequests is assignRequests as it was before a shard's replay
// became a stream (ISSUE 16): the trace expanded ×Repeat into one
// request slice per shard. It is the oracle for the cursor
// (shardSpec.at / req) and the per-shard counts, and it hashes each
// record's whole (seed, disk, host, extent) tenant key, the oracle for
// the per-source prefixes assignRequests hashes once.
func refAssignRequests(cfg Config, trace *workload.TimedTrace, place Placement) (reqs [][]timedReq, tenants []int) {
	reqs, tenants = make([][]timedReq, cfg.Shards), make([]int, cfg.Shards)
	slot := make(map[int]int, cfg.Tenants)

	span := trace.SpanNs + 1
	passGap := sim.Time(0)
	if trace.Len() > 1 {
		passGap = span / sim.Time(trace.Len())
	}
	emitted := 0
	for pass := 0; pass < cfg.Repeat; pass++ {
		base := sim.Time(pass) * (span + passGap)
		for _, r := range trace.Reqs {
			if cfg.MaxRequests > 0 && emitted >= cfg.MaxRequests {
				return reqs, tenants
			}
			src := trace.Sources[r.Source]
			tenant := int(fnvMix(fnvString(fnvMix(cfg.Seed, uint64(src.Disk)), src.Host), uint64(r.LPN/tenantExtentPages)) % uint64(cfg.Tenants))
			sh := place.Shard(tenant)
			sl, ok := slot[tenant]
			if !ok {
				sl = tenants[sh]
				tenants[sh]++
				slot[tenant] = sl
			}
			reqs[sh] = append(reqs[sh], timedReq{
				at:       base + r.AtNs,
				shardReq: shardReq{tenant: sl, op: r.Op, lpn: r.LPN, pages: r.Pages},
			})
			emitted++
		}
	}
	return reqs, tenants
}

// For random (Repeat, MaxRequests, Shards, Placement) every shard's
// cursor yields exactly the request sequence the up-front expansion
// built, and the same tenant count.
func TestCursorMatchesExpandedRequests(t *testing.T) {
	src := rng.New(16)
	for round := 0; round < 300; round++ {
		tr := synthTrace(1 + src.Intn(120))
		cfg := Config{
			Shards:    1 + src.Intn(5),
			Placement: []string{PlaceHash, PlaceRange, PlaceCapacity}[src.Intn(3)],
			Seed:      1 + uint64(src.Intn(1000)),
			Repeat:    1 + src.Intn(5),
		}
		cfg.Tenants = cfg.Shards + src.Intn(40)
		if src.Intn(3) > 0 {
			// Bounds below one pass, inside a later pass, on a pass
			// boundary and beyond the expansion all occur.
			cfg.MaxRequests = 1 + src.Intn(cfg.Repeat*tr.Len()+10)
			if src.Intn(4) == 0 {
				cfg.MaxRequests = tr.Len() * (1 + src.Intn(cfg.Repeat))
			}
		}
		cfg = cfg.withDefaults()
		specs, place, err := planShards(cfg, tr)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, tenants := refAssignRequests(cfg, tr, place)
		for sh, sp := range specs {
			if sp.tenants != tenants[sh] || sp.n != len(want[sh]) {
				t.Fatalf("round %d (%+v) shard %d: %d tenants, %d requests; reference %d, %d",
					round, cfg, sh, sp.tenants, sp.n, tenants[sh], len(want[sh]))
			}
			for i, w := range want[sh] {
				if got := (timedReq{sp.at(i), sp.req(i)}); got != w {
					t.Fatalf("round %d (%+v) shard %d request %d: %+v, reference %+v",
						round, cfg, sh, i, got, w)
				}
			}
		}
	}
}

func msrFixture(t *testing.T) *workload.TimedTrace {
	t.Helper()
	f, err := os.Open("../workload/testdata/msr_sample.csv")
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	tr, err := workload.ParseTimedTrace("msr_sample", f, workload.TraceOptions{TimeCompression: 20})
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return tr
}

// What a shard holds before its replay starts does not grow with
// Repeat: the passes are produced by the cursor, not stored.
func TestShardPlanIndependentOfRepeat(t *testing.T) {
	tr := msrFixture(t)
	size := func(repeat int) (refs, requests int) {
		cfg := smallConfig()
		cfg.Repeat = repeat
		specs, _, err := planShards(cfg.withDefaults(), tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			refs += cap(sp.refs)
			requests += sp.n
		}
		return refs, requests
	}
	refs4, n4 := size(4)
	refs40, n40 := size(40)
	if refs4 != refs40 || refs4 < tr.Len() {
		t.Errorf("index lists hold %d entries for Repeat 4, %d for Repeat 40 (trace has %d records)", refs4, refs40, tr.Len())
	}
	if n4 != 4*tr.Len() || n40 != 40*tr.Len() {
		t.Errorf("requests planned: %d and %d, want %d and %d", n4, n40, 4*tr.Len(), 40*tr.Len())
	}
}

// After the passes that warm a run up (device built and prefilled,
// cache full, free lists, rings and the calendar at their steady
// sizes), further passes over the fixture cost at most one allocation
// per request: what is left is the latency histograms growing and the
// device's own word-line bookkeeping, nothing per hit, miss or eviction
// in fleet or cache.
func TestFleetReplayAllocs(t *testing.T) {
	tr := msrFixture(t)
	mallocs := func(repeat int) (uint64, int64) {
		cfg := Config{
			Shards: 2, Tenants: 256, Seed: 1,
			BlocksPerChip: 16, Channels: 1, DiesPerChannel: 2,
			Cache:  cache.Config{SizePages: 1024, Policy: cache.Policy2Q, Mode: cache.WriteBack},
			Repeat: repeat,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg, tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.Requests
	}
	warm, warmReqs := mallocs(8)
	more, moreReqs := mallocs(24)
	perReq := (float64(more) - float64(warm)) / float64(moreReqs-warmReqs)
	t.Logf("%d allocations for %d requests, %d for %d: %.3f per further request", warm, warmReqs, more, moreReqs, perReq)
	if perReq > 0.1 {
		t.Errorf("a further pass costs %.3f allocations per request, want <= 0.1", perReq)
	}
}
