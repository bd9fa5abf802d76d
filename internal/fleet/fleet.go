// Package fleet simulates N independent SSDs — shards — serving
// thousands of logical tenants behind per-shard host DRAM caches, the
// "many process-similar devices" deployment the paper's single-device
// study scales out to (DESIGN.md §14).
//
// Each shard is a complete simulated device: its own sim.Engine, its
// own ssd.Device with a seed-derived process personality (and optional
// seed-derived aging/capacity variation), its own FTL controller and
// multi-queue host front end, and its own host-side cache. Shards
// share no mutable state, so each one's event loop is exactly as
// deterministic as a single-device run; the fleet runs them on
// concurrent goroutines purely for wall-clock speed.
//
// Determinism across the fleet follows from three invariants: tenant
// placement is a pure function of (policy, seed, capacities); each
// shard's replay depends only on its own request stream and seed; and
// aggregation merges shard results in fixed shard order after every
// goroutine has finished. A fixed seed therefore yields a byte-stable
// fleet report regardless of goroutine scheduling — wall-clock timing
// is reported separately and never enters the deterministic output.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cubeftl/internal/cache"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/workload"
)

// Typed fleet errors.
var (
	// ErrNoTrace reports a fleet run without any replayable requests.
	ErrNoTrace = errors.New("fleet: no trace requests to replay")
	// ErrBadConfig reports an invalid fleet configuration.
	ErrBadConfig = errors.New("fleet: bad configuration")
	// ErrBadPolicy reports an unknown FTL policy name.
	ErrBadPolicy = errors.New("fleet: unknown ftl policy")
)

// Config shapes a fleet run.
type Config struct {
	// Shards is the number of independent simulated SSDs (default 4).
	Shards int
	// Tenants is the number of logical tenants mapped onto the shards
	// (default 1024). Each tenant owns a contiguous slice of its
	// shard's logical space.
	Tenants int
	// Placement maps tenants to shards: PlaceHash (default) or
	// PlaceCapacity.
	Placement string
	// Seed roots every derived stream: per-shard device seeds, aging
	// jitter, capacity jitter, and hash placement (default 1).
	Seed uint64

	// Policy is the FTL flavor on every shard: any name stack.Spec.FTL
	// accepts ("cube" is the default).
	Policy string
	// BlocksPerChip scales each device down for tractable runtimes
	// (default 16, the same knob the single-device evaluation uses).
	BlocksPerChip int
	// Channels / DiesPerChannel override the backend topology
	// (0 keeps the device default 2x4).
	Channels       int
	DiesPerChannel int
	// CapacityJitter varies BlocksPerChip per shard by up to the given
	// fraction (seed-derived, 0 disables). With PlaceCapacity this is
	// what makes capacity-aware placement differ from uniform.
	CapacityJitter float64

	// PE / RetentionMonths pre-age every shard (0 = fresh devices).
	// AgeJitter varies the P/E count per shard by up to the given
	// fraction (seed-derived, 0 disables), modeling fleet-wide wear
	// imbalance. Run rejects a jitter that is negative or not finite.
	PE              int
	RetentionMonths float64
	AgeJitter       float64

	// QueuesPerShard is the number of host queue pairs per shard;
	// tenants on a shard share them round-robin (default 8).
	QueuesPerShard int
	// QueueDepth bounds each queue pair (default 32).
	QueueDepth int

	// Cache configures each shard's private host-side DRAM cache
	// (SizePages is per shard; <= 0 disables caching).
	Cache cache.Config

	// PrefillPages sequentially maps the first N logical pages of each
	// shard before replay so reads hit programmed flash (0 = none;
	// unmapped reads complete at buffer latency).
	PrefillPages int64

	// Repeat replays the trace this many times back to back, extending
	// simulated time (default 1). Used to scale IO volume.
	Repeat int

	// SampleIntervalNs enables per-shard sim-clock sampling every given
	// simulated nanoseconds; the per-shard streams merge into
	// Result.Series (0 = sampling off). Sampling is pure observation —
	// it never schedules events, so the replay is bit-identical with it
	// on or off.
	SampleIntervalNs int64
}

const (
	// bufferPages sizes each shard controller's write buffer.
	bufferPages = 128
	// cacheHitNs is the DRAM service latency charged to cache hits and
	// write-back absorptions.
	cacheHitNs = 2000
	// tenantExtentPages is the source-LBA granularity of tenant
	// synthesis: trace extents within the same aligned window of this
	// many pages belong to the same tenant.
	tenantExtentPages = 2048
)

// DefaultConfig returns the standard fleet setup: 4 shards, 1024
// tenants, hash placement, cubeFTL shards with a disabled cache.
func DefaultConfig() Config {
	return Config{
		Shards:         4,
		Tenants:        1024,
		Placement:      PlaceHash,
		Seed:           1,
		Policy:         "cube",
		BlocksPerChip:  16,
		QueuesPerShard: 8,
		QueueDepth:     32,
		Repeat:         1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Shards <= 0 {
		c.Shards = d.Shards
	}
	if c.Tenants <= 0 {
		c.Tenants = d.Tenants
	}
	if c.Placement == "" {
		c.Placement = d.Placement
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Policy == "" {
		c.Policy = d.Policy
	}
	if c.BlocksPerChip <= 0 {
		c.BlocksPerChip = d.BlocksPerChip
	}
	if c.QueuesPerShard <= 0 {
		c.QueuesPerShard = d.QueuesPerShard
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.Repeat <= 0 {
		c.Repeat = d.Repeat
	}
	return c
}

// Run replays trace across a fleet built from cfg and returns the
// aggregated result. The trace's source address space is folded onto
// synthesized tenants; each shard replays its tenants' requests on its
// own goroutine and engine.
func Run(cfg Config, trace *workload.TimedTrace) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Tenants < cfg.Shards {
		return nil, fmt.Errorf("%w: %d tenants cannot cover %d shards", ErrBadConfig, cfg.Tenants, cfg.Shards)
	}
	for _, j := range []struct {
		name string
		v    float64
	}{{"-capacity-jitter (CapacityJitter)", cfg.CapacityJitter}, {"-age-jitter (AgeJitter)", cfg.AgeJitter}} {
		if !(j.v >= 0 && j.v <= math.MaxFloat64) {
			return nil, fmt.Errorf("%w: %s must be a finite, non-negative fraction, got %v", ErrBadConfig, j.name, j.v)
		}
	}

	specs, place, err := planShards(cfg, trace)
	if err != nil {
		return nil, err
	}

	// One goroutine per shard; results land in shard-indexed slots so
	// the merge below runs in fixed shard order no matter which
	// goroutine finishes first.
	results := make([]ShardResult, cfg.Shards)
	errs := make([]error, cfg.Shards)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runShard(cfg, specs[i])
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	res := merge(cfg, place.Name(), results)
	res.WallNs = wall.Nanoseconds()
	return res, nil
}

// planShards fixes, before any goroutine starts, each shard's device
// personality and which of the trace's records it replays.
func planShards(cfg Config, trace *workload.TimedTrace) ([]*shardSpec, Placement, error) {
	if trace == nil || trace.Len() == 0 {
		return nil, nil, ErrNoTrace
	}
	specs := buildShardSpecs(cfg, rng.New(cfg.Seed))
	weights := make([]int64, cfg.Shards)
	for i, sp := range specs {
		weights[i] = int64(sp.blocksPerChip)
	}
	place, err := NewPlacement(cfg.Placement, cfg.Shards, cfg.Tenants, weights, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if err := assignRequests(cfg, trace, place, specs); err != nil {
		return nil, nil, err
	}
	return specs, place, nil
}

// shardSpec is everything a shard goroutine needs, fixed before any
// goroutine starts. Its requests are not materialised: refs names the
// shard's records of one pass over the trace, and request i of the
// replay is record refs[i%len(refs)] of pass i/len(refs) — memory is
// O(trace) whatever Repeat is.
type shardSpec struct {
	id            int
	seed          uint64 // device seed, derived from the fleet seed
	blocksPerChip int    // after capacity jitter
	pe            int    // after age jitter
	tenants       int    // tenants placed on this shard

	trace  *workload.TimedTrace // shared by every shard, read-only
	stride sim.Time             // pass p starts p*stride after the first
	refs   []traceRef           // this shard's records, in trace order
	n      int                  // requests to replay: Repeat whole passes over refs
}

// traceRef is one trace record as a shard sees it.
type traceRef struct {
	rec  int32 // index into trace.Reqs
	slot int32 // tenant slot within the shard (0..tenants-1)
}

// shardReq is one replayed request in shard-local terms.
type shardReq struct {
	tenant int // slot index within the shard (0..tenants-1)
	op     workload.Op
	lpn    int64 // source page number; folded into the tenant extent at replay
	pages  int
}

// at returns the arrival time of request i, relative to replay start.
func (sp *shardSpec) at(i int) sim.Time {
	pass, j := i/len(sp.refs), i%len(sp.refs)
	return sim.Time(pass)*sp.stride + sp.trace.Reqs[sp.refs[j].rec].AtNs
}

// req returns request i of the shard's replay.
func (sp *shardSpec) req(i int) shardReq {
	ref := sp.refs[i%len(sp.refs)]
	r := &sp.trace.Reqs[ref.rec]
	return shardReq{tenant: int(ref.slot), op: r.Op, lpn: r.LPN, pages: r.Pages}
}

// buildShardSpecs derives each shard's device personality from the
// fleet seed: a unique device seed (process variation), optional
// capacity jitter, and optional aging jitter.
func buildShardSpecs(cfg Config, root *rng.Source) []*shardSpec {
	specs := make([]*shardSpec, cfg.Shards)
	for i := range specs {
		r := root.DeriveN("shard", uint64(i))
		blocks := cfg.BlocksPerChip
		if cfg.CapacityJitter > 0 {
			// Jitter in [-j, +j], at least 4 blocks so GC keeps headroom.
			f := 1 + cfg.CapacityJitter*(2*r.Float64()-1)
			blocks = int(float64(blocks) * f)
			if blocks < 4 {
				blocks = 4
			}
		}
		pe := cfg.PE
		if pe > 0 && cfg.AgeJitter > 0 {
			pe = int(float64(pe) * (1 + cfg.AgeJitter*(2*r.Float64()-1)))
			if pe < 0 {
				pe = 0
			}
		}
		specs[i] = &shardSpec{
			id:            i,
			seed:          r.Uint64(),
			blocksPerChip: blocks,
			pe:            pe,
		}
	}
	return specs
}

// assignRequests synthesizes tenant identities from source streams and
// extents and partitions the trace's records across shards, in one pass
// over the trace: each shard is left the list of its records and the
// number of requests the repeat passes make of them. Arrivals must be
// non-decreasing, also from one pass into the next, because a shard
// replays them as a stream; the parser guarantees it, a hand-built
// trace may not.
func assignRequests(cfg Config, trace *workload.TimedTrace, place Placement, specs []*shardSpec) error {
	n := trace.Len()
	if n > math.MaxInt32 {
		return fmt.Errorf("%w: trace of %d records", ErrBadConfig, n)
	}
	// Repeat passes continue the arrival process with the trace's mean
	// inter-arrival gap between the last and first record.
	stride := trace.SpanNs + 1
	if n > 1 {
		stride += stride / sim.Time(n)
	}

	// A tenant hashes its source's (seed, disk, host) prefix, computed
	// once per source, with the record's extent.
	prefix := make([]uint64, len(trace.Sources))
	for i, s := range trace.Sources {
		prefix[i] = fnvString(fnvMix(cfg.Seed, uint64(s.Disk)), s.Host)
	}

	// Tenant slots are allocated per shard in first-appearance order of
	// the global tenant id, so a shard's tenant count is known before
	// its device is built. A first pass hashes each record to its
	// tenant, kept as the tenant's ordinal in that order, and counts
	// each shard's records; the second carves every shard's refs out of
	// one array sized once.
	type tenantHome struct{ shard, slot int32 }
	var homes []tenantHome
	ordinal := make(map[int]int32, cfg.Tenants)
	ords := make([]int32, n)
	counts := make([]int, len(specs))
	prev := sim.Time(0)
	for i := range trace.Reqs {
		r := &trace.Reqs[i]
		if r.AtNs < prev {
			return fmt.Errorf("fleet: trace record %d arrives at %d ns, before its predecessor at %d ns: %w",
				i, r.AtNs, prev, workload.ErrTraceOutOfOrder)
		}
		prev = r.AtNs
		if r.Source < 0 || int(r.Source) >= len(prefix) {
			return fmt.Errorf("fleet: trace record %d names source %d of %d: %w",
				i, r.Source, len(prefix), workload.ErrTraceRecord)
		}
		tenant := tenantOf(cfg, prefix[r.Source], r.LPN)
		o, ok := ordinal[tenant]
		if !ok {
			o = int32(len(homes))
			ordinal[tenant] = o
			sh := place.Shard(tenant)
			homes = append(homes, tenantHome{shard: int32(sh), slot: int32(specs[sh].tenants)})
			specs[sh].tenants++
		}
		ords[i] = o
		counts[homes[o].shard]++
	}
	refs := make([]traceRef, n)
	for i, sp := range specs {
		sp.refs, refs = refs[:0:counts[i]], refs[counts[i]:]
	}
	for i, o := range ords {
		h := homes[o]
		sp := specs[h.shard]
		sp.refs = append(sp.refs, traceRef{rec: int32(i), slot: h.slot})
	}
	if cfg.Repeat > 1 && trace.Reqs[0].AtNs+stride < prev {
		return fmt.Errorf("fleet: trace record %d arrives at %d ns, past the %d ns span that places the next pass: %w",
			n-1, prev, trace.SpanNs, workload.ErrTraceOutOfOrder)
	}
	for _, sp := range specs {
		sp.trace, sp.stride = trace, stride
		sp.n = cfg.Repeat * len(sp.refs)
	}
	return nil
}

// tenantOf synthesizes a logical tenant from a trace record, given its
// source's hash prefix and its LPN: requests from the same source stream
// touching the same aligned extent window belong to the same tenant.
func tenantOf(cfg Config, prefix uint64, lpn int64) int {
	h := fnvMix(prefix, uint64(lpn/tenantExtentPages))
	return int(h % uint64(cfg.Tenants))
}
