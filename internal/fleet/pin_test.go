package fleet

import (
	"fmt"
	"hash/fnv"
	"testing"

	"cubeftl/internal/cache"
	"cubeftl/internal/pool"
)

// TestFleetReplayPinned pins the whole deterministic fleet report (and
// the chained grant hash) of the checked-in MSR fixture on pre-aged,
// capacity-jittered cube shards. Captured at commit 6302764, the parent
// of the internal/stack builder: a change to how a shard's device stack
// is constructed must reproduce it to the byte. The second round runs
// with one spare record per free list, so that what is pinned does not
// rest on miss records (or the device's op records) being reused. The
// report hashes were re-captured at ISSUE 17 (fixed-bucket
// metrics.Hist): the read_lat_us percentiles moved down by at most one
// bucket, every other byte of both reports is the same. The cube report
// was re-captured when GC stopped taking a victim without an invalid
// page: shard 3 (8 blocks) no longer copies a fully valid block, so its
// elapsed_ms, the fleet's sim_elapsed_ms, cache partial / dirty_evict
// counts (one fewer each) and read_lat_us p95 / p99 moved; the grant
// hash, every request count and every other shard line did not. It
// was re-captured again when GC also stopped taking a victim whose live
// pages fill every word line of a block: shard 1's elapsed_ms
// (2926.081 -> 2925.519) and shard 3's (2929.431 -> 2930.024), the
// fleet's sim_elapsed_ms, cache partial (322 -> 324) and dirty_evict
// (7081 -> 7082), and read_lat_us p95 / p99 / max moved; the grant hash,
// every request, GC and host-write count did not.
func TestFleetReplayPinned(t *testing.T) {
	replayPinned(t)
	defer pool.LimitFreeListsForTest(1)()
	replayPinned(t)
}

func replayPinned(t *testing.T) {
	t.Helper()
	tr := msrFixture(t)
	for _, p := range []struct {
		policy, want string
	}{
		{"cube", "report=4964b3736a409782 trace=4400229985772315657"},
		{"vertFTL", "report=8bd3fcc2bc194dba trace=4400229985772315657"},
	} {
		res, err := Run(Config{
			Shards: 4, Tenants: 256, Seed: 3, Policy: p.policy,
			BlocksPerChip: 10, Channels: 1, DiesPerChannel: 2, QueuesPerShard: 4,
			CapacityJitter: 0.2, PE: 1000, RetentionMonths: 3, AgeJitter: 0.2,
			PrefillPages: 4096, Repeat: 8,
			Cache: cache.Config{SizePages: 256, Policy: cache.Policy2Q, Mode: cache.WriteBack},
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write([]byte(res.Report()))
		if got := fmt.Sprintf("report=%016x trace=%d", h.Sum64(), res.TraceHash); got != p.want {
			t.Errorf("%s: fleet replay moved\n got: %s\nwant: %s\n%s", p.policy, got, p.want, res.Report())
		}
	}
}
