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
// bucket, every other byte of both reports is the same.
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
		{"cube", "report=750a96e2d51c4a5a trace=4400229985772315657"},
		{"vertFTL", "report=e66e7b599fe7bb1f trace=4400229985772315657"},
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
