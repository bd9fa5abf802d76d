package fleet

import (
	"fmt"

	"cubeftl/internal/cache"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/metrics"
	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// shardRunner replays one shard's requests on its private engine. It
// interposes the host cache in front of the multi-queue interface:
// read hits and write-back absorptions complete at DRAM latency
// without touching the device; evicted dirty pages are written to the
// device directly (flush traffic competes with host IO on the engine
// but is not charged to any tenant's latency).
type shardRunner struct {
	cfg  Config
	spec *shardSpec

	eng   *sim.Engine
	ctrl  *ftl.Controller
	h     *host.Host
	cache *cache.Cache

	readLat  *metrics.Hist // host-visible read latency incl. cache hits
	writeLat *metrics.Hist
	sampler  *shardSampler // nil when Config.SampleIntervalNs == 0

	span int64    // logical pages per tenant extent
	t0   sim.Time // replay start; prefill may have advanced the clock

	misses    pool.FreeList[missRec]
	backlog   []pool.Ring[*missRec] // per queue: misses bounced by admission control
	completed int64
	total     int64
	reads     int64
	writes    int64

	flushWrites     int64 // dirty cache pages written to the device
	flushRejects    int64 // flush writes refused by a degraded device
	flushInflight   int64
	queueFullDefers int64

	// Bound once: a cache flush write was acknowledged; a cache hit's
	// DRAM latency has elapsed.
	onFlushed  func()
	onReadHit  func()
	onWriteHit func()
}

// missRec is one cache miss on its way through the host queue: what
// its completion needs to know, pooled so that the completion callback
// is bound once per record rather than built per request.
type missRec struct {
	r     *shardRunner
	qid   int
	op    workload.Op
	lpn   int64
	pages int
	live  bool

	onDone func(host.Completion) // m.done, bound at creation
}

func (r *shardRunner) getMiss() *missRec {
	m := r.misses.Get()
	if m == nil {
		m = &missRec{r: r}
		m.onDone = m.done
	}
	m.live = true
	return m
}

// runShard builds one complete device stack and replays the shard's
// requests to completion.
func runShard(cfg Config, spec *shardSpec) (ShardResult, error) {
	stk, err := stack.Build(stack.Spec{
		FTL: cfg.Policy, Channels: cfg.Channels, DiesPerChannel: cfg.DiesPerChannel,
		BlocksPerChip: spec.blocksPerChip, Seed: spec.seed, WriteBufferPages: bufferPages,
		PECycles: spec.pe, RetentionMonths: cfg.RetentionMonths,
	})
	if err != nil {
		// cfg.withDefaults and planShards left every count positive and
		// no retry mode: the FTL name is all Build can still reject.
		return ShardResult{}, fmt.Errorf("%w: %v", ErrBadPolicy, err)
	}
	eng, ctrl := stk.Eng, stk.Ctrl

	queues := make([]host.QueueConfig, cfg.QueuesPerShard)
	for q := range queues {
		queues[q] = host.QueueConfig{
			Name:  fmt.Sprintf("s%dq%d", spec.id, q),
			Depth: cfg.QueueDepth,
		}
	}
	h, err := host.New(ctrl, host.Config{Queues: queues})
	if err != nil {
		return ShardResult{}, err
	}
	hc, err := cache.New(cfg.Cache)
	if err != nil {
		return ShardResult{}, err
	}

	logical := int64(ctrl.LogicalPages())
	if n := cfg.PrefillPages; n > 0 {
		if n > logical {
			n = logical
		}
		workload.Prefill(ctrl, n)
		ctrl.ResetStats()
	}

	r := &shardRunner{
		cfg:      cfg,
		spec:     spec,
		eng:      eng,
		ctrl:     ctrl,
		h:        h,
		cache:    hc,
		readLat:  metrics.NewHist(0),
		writeLat: metrics.NewHist(0),
		backlog:  make([]pool.Ring[*missRec], cfg.QueuesPerShard),
		total:    int64(spec.n),
	}
	r.onFlushed = func() { r.flushInflight-- }
	r.onReadHit = func() { r.finish(workload.Read) }
	r.onWriteHit = func() { r.finish(workload.Write) }
	if cfg.SampleIntervalNs > 0 {
		r.sampler = newShardSampler(r, cfg.Live)
		eng.SetProbe(sim.Time(cfg.SampleIntervalNs), func(at sim.Time) { r.sampler.take(at) })
	}
	replayStart := eng.Now() // prefill time is excluded from ElapsedNs
	r.replay(logical)
	if r.sampler != nil {
		// Tail sample: the window since the last boundary crossing.
		r.sampler.take(eng.Now())
	}

	st := ctrl.Stats()
	res := ShardResult{
		Shard:         spec.id,
		Seed:          spec.seed,
		BlocksPerChip: spec.blocksPerChip,
		PE:            spec.pe,
		LogicalPages:  logical,
		Tenants:       spec.tenants,
		Requests:      r.completed,
		Reads:         r.reads,
		Writes:        r.writes,
		ReadLat:       r.readLat,
		WriteLat:      r.writeLat,
		CacheStats:    hc.Stats(),
		FlushWrites:   r.flushWrites,
		FlushRejects:  r.flushRejects,
		Defers:        r.queueFullDefers,
		ElapsedNs:     eng.Now() - replayStart,
		TraceHash:     h.TraceHash(),
		Grants:        h.Grants(),
		HostReads:     st.HostReads,
		HostWrites:    st.HostWrites,
		GCCount:       st.GCCount,
		Degraded:      ctrl.Degraded(),
	}
	if r.sampler != nil {
		res.Samples = r.sampler.samples
	}
	return res, nil
}

// replay feeds the shard's requests to the engine as an arrival stream
// and runs it until all of them (and all cache flush traffic) complete.
func (r *shardRunner) replay(logical int64) {
	// Tenant extents: each tenant slot owns a contiguous slice of the
	// shard's logical space; source LPNs fold into the slice preserving
	// offset locality (hot source extents stay hot in the device).
	tenants := int64(r.spec.tenants)
	if tenants < 1 {
		tenants = 1
	}
	r.span = logical / tenants
	if r.span < 1 {
		r.span = 1
	}
	r.t0 = r.eng.Now()
	r.eng.Feed(r.spec.n, r.arrivalAt, r.arrive)
	r.eng.RunWhile(func() bool { return r.completed < r.total || r.flushInflight > 0 })
	for _, lpn := range r.cache.FlushAll() {
		r.deviceFlush(lpn)
	}
	r.eng.RunWhile(func() bool { return r.flushInflight > 0 })
	r.eng.RunWhile(func() bool { return !r.ctrl.Drained() })
}

func (r *shardRunner) arrivalAt(i int) sim.Time { return r.t0 + r.spec.at(i) }

// arrive folds request i into its tenant's extent and issues it.
func (r *shardRunner) arrive(i int) {
	req := r.spec.req(i)
	if int64(req.pages) > r.span {
		req.pages = int(r.span)
	}
	fold := r.span - int64(req.pages) + 1
	req.lpn = int64(req.tenant)*r.span + req.lpn%fold
	r.issue(req.tenant%r.cfg.QueuesPerShard, req)
}

// issue runs one request through the cache and, on a miss, the host
// queue. Admission-control rejections park the request in the queue's
// backlog; completions drain it in FIFO order.
func (r *shardRunner) issue(qid int, req shardReq) {
	if req.op == workload.Read {
		if r.cache.Lookup(req.lpn, req.pages) {
			r.readLat.Add(cacheHitNs)
			r.sampler.observe(false, cacheHitNs)
			r.eng.After(cacheHitNs, r.onReadHit)
			return
		}
	} else {
		absorbed, flush := r.cache.Write(req.lpn, req.pages)
		for _, lpn := range flush {
			r.deviceFlush(lpn)
		}
		if absorbed {
			r.writeLat.Add(cacheHitNs)
			r.sampler.observe(true, cacheHitNs)
			r.eng.After(cacheHitNs, r.onWriteHit)
			return
		}
	}
	// A cache miss goes to the shard's host front end. Queue full means
	// open-loop arrivals outran the device: the miss waits in the
	// backlog and retries on the next completion.
	m := r.getMiss()
	m.qid, m.op, m.lpn, m.pages = qid, req.op, req.lpn, req.pages
	if !r.trySubmit(m) {
		r.queueFullDefers++
		r.backlog[qid].Push(m)
	}
}

// done is the miss's host completion: latency accounting, the read
// fill, and a retry of whatever the queue had bounced.
func (m *missRec) done(c host.Completion) {
	pool.CheckLive(m.live, "fleet miss record")
	r := m.r
	if m.op == workload.Read {
		r.readLat.Add(c.LatencyNs)
		r.sampler.observe(false, c.LatencyNs)
		for _, lpn := range r.cache.FillRead(m.lpn, m.pages) {
			r.deviceFlush(lpn)
		}
	} else {
		r.writeLat.Add(c.LatencyNs)
		r.sampler.observe(true, c.LatencyNs)
	}
	r.finish(m.op)
	r.drainBacklog(m.qid)
	m.live = false
	r.misses.Put(m)
}

// trySubmit offers one miss to its host queue, reporting whether it
// was admitted.
func (r *shardRunner) trySubmit(m *missRec) bool {
	pool.CheckLive(m.live, "fleet miss record")
	op := host.Read
	if m.op == workload.Write {
		op = host.Write
	}
	err := r.h.Submit(m.qid, host.Command{Op: op, LPN: m.lpn, Pages: m.pages, Done: m.onDone})
	return err == nil
}

// drainBacklog resubmits parked misses in FIFO order while the queue
// accepts them. A miss leaves the ring before it is offered: a degraded
// device completes a rejected write inside Submit, and that completion
// drains the backlog again.
func (r *shardRunner) drainBacklog(qid int) {
	q := &r.backlog[qid]
	for q.Len() > 0 {
		m := q.Pop()
		if !r.trySubmit(m) {
			q.PushFront(m) // still full; the next completion retries
			return
		}
	}
}

func (r *shardRunner) finish(op workload.Op) {
	if op == workload.Read {
		r.reads++
	} else {
		r.writes++
	}
	r.completed++
}

// deviceFlush writes one evicted/flushed dirty cache page straight to
// the controller, bypassing tenant queues: background cleaning traffic
// that contends for the device but belongs to no tenant.
func (r *shardRunner) deviceFlush(lpn int64) {
	r.flushInflight++
	err := r.ctrl.Write(ftl.LPN(lpn), nil, r.onFlushed)
	if err != nil {
		// Degraded device: the dirty page is lost, which is the real
		// failure contract of a volatile write-back cache.
		r.flushInflight--
		r.flushRejects++
		return
	}
	r.flushWrites++
}
