// Package host is the NVMe-style multi-queue front end of the
// simulated SSD: N submission/completion queue pairs, each owned by a
// named tenant, feeding the single FTL controller through the
// deterministic event engine.
//
// Each queue pair has bounded depth (admission control: a full queue
// rejects with ErrQueueFull so submitters feel backpressure instead of
// unbounded buffering), an optional token-bucket rate limit, and a WRR
// weight / strict-priority class consumed by the pluggable Arbiter.
// The device fetches commands from the queues through the arbiter
// whenever one of its DispatchWidth slots is free, so host-visible
// latency is SQ wait + device service — the controller's own histograms
// keep measuring the device-side component.
//
// Everything runs on the simulation engine's single-threaded event
// loop: the same configuration and seed replay bit-for-bit, including
// the arbitration grant sequence (exposed as an FNV-1a trace hash).
package host

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"cubeftl/internal/ftl"
	"cubeftl/internal/metrics"
	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/telemetry"
)

// Typed host-interface errors.
var (
	// ErrQueueFull reports a submission refused because the queue pair
	// is at its configured depth (admission control / backpressure).
	ErrQueueFull = errors.New("host: submission queue full")
	// ErrBadQueue reports a submission to a queue that does not exist.
	ErrBadQueue = errors.New("host: no such queue")
	// ErrNoQueues reports a host configured without queue pairs.
	ErrNoQueues = errors.New("host: at least one queue pair required")
	// ErrUnknownArbiter reports a NewArbiter name outside the supported
	// set (rr, wrr, prio).
	ErrUnknownArbiter = errors.New("host: unknown arbiter")
	// ErrBadRate reports a token-bucket rate that is neither 0 (uncapped)
	// nor a finite rate of at least MinRateIOPS (CheckRate).
	ErrBadRate = errors.New("host: a rate cap is 0 (uncapped) or a finite IOPS of at least 1e-9")
)

// MinRateIOPS is the smallest token-bucket rate. The wait for one token,
// up to 1e9/rate ns, then fits the engine's int64 clock with over 250
// years of simulated time to spare; a rate below about 1.1e-10 overflowed
// it, and the engine stepped 1 ns at a time forever.
const MinRateIOPS = 1e-9

// CheckRate returns nil for 0 (uncapped) and for a finite rate of at
// least MinRateIOPS, and ErrBadRate naming the value otherwise: NaN, a
// negative or infinite rate, or one too small to wait for.
func CheckRate(iops float64) error {
	if iops == 0 || (iops >= MinRateIOPS && iops <= math.MaxFloat64) {
		return nil
	}
	return fmt.Errorf("%w, got %v", ErrBadRate, iops)
}

// Op is a host command direction.
type Op int

// Command operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Command is one host I/O: an operation over Pages consecutive logical
// pages starting at LPN. Done (optional) runs in simulated time when
// every page has completed.
type Command struct {
	Op    Op
	LPN   int64
	Pages int
	Done  func(c Completion)
}

// Completion reports one finished command back to its submitter.
type Completion struct {
	SubmitNs sim.Time // when Submit accepted the command
	DoneNs   sim.Time // when the last page completed
	// LatencyNs is the host-visible latency: SQ wait + device service.
	LatencyNs int64
	// RejectedPages counts pages the controller refused synchronously
	// (degraded read-only device); they complete immediately.
	RejectedPages int
}

// QueueConfig describes one submission/completion queue pair.
type QueueConfig struct {
	// Name labels the tenant that owns the queue (defaults to "q<index>").
	Name string
	// Depth bounds the queue occupancy — commands submitted but not yet
	// completed. Submissions beyond it fail with ErrQueueFull.
	// 0 defaults to 32.
	Depth int
	// Weight is the WRR share (used by the "wrr" arbiter); 0 defaults
	// to 1.
	Weight int
	// Priority is the strict-priority class; higher is more urgent
	// (used by the "prio" arbiter).
	Priority int
	// RateIOPS token-bucket rate limits the queue's command fetch rate;
	// 0 disables limiting, and anything else must pass CheckRate. A
	// multi-page command consumes one token; the bucket holds Depth.
	RateIOPS float64
}

// Check returns nil when every field of q is in range: Depth and Weight
// are non-negative (0 keeps the default) and RateIOPS passes CheckRate.
// The error names the field.
func (q QueueConfig) Check() error {
	for _, f := range []struct {
		name string
		n    int
	}{{"depth", q.Depth}, {"weight", q.Weight}} {
		if f.n < 0 {
			return fmt.Errorf("%s: %d is negative", f.name, f.n)
		}
	}
	if err := CheckRate(q.RateIOPS); err != nil {
		return fmt.Errorf("rate: %w", err)
	}
	return nil
}

// ParseQueue decodes the tenant spec both binaries take,
// "name[,weight=N][,depth=N][,prio=N][,rate=IOPS]", into a QueueConfig
// that passes Check. A field named in extra goes to its function, which
// decodes the value for the caller; any other field is an error. Weight,
// depth and prio are integers. Every error names the spec and the field.
func ParseQueue(spec string, extra map[string]func(value string) error) (QueueConfig, error) {
	parts := strings.Split(spec, ",")
	if parts[0] == "" {
		return QueueConfig{}, fmt.Errorf("tenant spec %q: empty name", spec)
	}
	q := QueueConfig{Name: parts[0]}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return q, fmt.Errorf("tenant spec %q: bad field %q", spec, kv)
		}
		var err error
		switch k {
		case "weight":
			q.Weight, err = strconv.Atoi(v)
		case "depth":
			q.Depth, err = strconv.Atoi(v)
		case "prio":
			q.Priority, err = strconv.Atoi(v)
		case "rate":
			q.RateIOPS, err = strconv.ParseFloat(v, 64)
		default:
			set, known := extra[k]
			if !known {
				return q, fmt.Errorf("tenant spec %q: unknown field %q", spec, k)
			}
			err = set(v)
		}
		if err != nil {
			return q, fmt.Errorf("tenant spec %q: %s: %v", spec, k, err)
		}
		// After each field, so a later one cannot overwrite a bad value.
		if err := q.Check(); err != nil {
			return q, fmt.Errorf("tenant spec %q: %v", spec, err)
		}
	}
	return q, nil
}

// Config assembles a host front end.
type Config struct {
	Queues []QueueConfig
	// Arb picks the next queue to fetch from; nil selects round-robin.
	Arb Arbiter
	// DispatchWidth bounds commands concurrently outstanding at the
	// device across all queues — the shared resource arbitration
	// divides. 0 defaults to the sum of queue depths (no device-side
	// narrowing beyond per-queue backpressure).
	DispatchWidth int
}

// TenantStats is the per-tenant accounting of one queue pair: the
// ledger the host counts into (metrics.Walk). /metrics labels each
// declared number with the tenant.
type TenantStats struct {
	Tenant string
	Queue  int `metric:"-"`

	Submitted int64 `metric:"-"` // commands accepted into the queue
	Completed int64 `metric:"-"`
	Reads     int64 `metric:"-"` // completed read commands
	Writes    int64 `metric:"-"` // completed write commands

	// QueueFulls counts submissions refused with ErrQueueFull.
	QueueFulls int64 `metric:"tenant/queue_fulls_total counter admissions refused, queue full"`
	// RejectedPages counts pages the degraded device refused.
	RejectedPages int64 `metric:"-"`
	// Grants counts device fetches won in arbitration.
	Grants int64 `metric:"tenant/grants_total counter arbitration grants"`
	// Throttles counts pump passes where this queue held work but was
	// blocked by its token bucket.
	Throttles int64 `metric:"tenant/throttles_total counter token-bucket throttles"`
	// MaxHeadWaitNs is the longest any command waited at the queue head
	// before being fetched — the starvation figure of merit.
	MaxHeadWaitNs int64 `metric:"-"`

	FirstSubmitNs sim.Time `metric:"-"`
	LastDoneNs    sim.Time `metric:"-"`

	ReadLat  *metrics.Hist // host-visible read latency (ns)
	WriteLat *metrics.Hist // host-visible write latency (ns)
}

// IOPS returns completed commands per simulated second over the
// tenant's active window (first submit to last completion).
func (t *TenantStats) IOPS() float64 {
	return metrics.IOPS(t.Completed, t.LastDoneNs-t.FirstSubmitNs)
}

type sqe struct {
	cmd    Command
	submit sim.Time
	sp     *telemetry.Span // nil when telemetry is off
}

type queue struct {
	cfg QueueConfig
	// fullErr is the queue's ErrQueueFull refusal, built once: closed-loop
	// drivers use the refusal as flow control on every completion.
	fullErr   error
	sq        []sqe // waiting commands; sq[head:] is the live window
	head      int
	occupancy int // waiting + dispatched, bounded by cfg.Depth

	// Token bucket (RateIOPS > 0 only), cfg.Depth tokens deep.
	tokens     float64
	lastRefill sim.Time
	wakeArmed  bool
	onWake     func() // the armed wake-up firing (bound once)
}

func (q *queue) pendingLen() int { return len(q.sq) - q.head }

func (q *queue) push(e sqe) { q.sq = append(q.sq, e) }

func (q *queue) pop() sqe {
	e := q.sq[q.head]
	q.sq[q.head] = sqe{}
	q.head++
	if q.head == len(q.sq) {
		q.sq, q.head = q.sq[:0], 0
	}
	return e
}

func (q *queue) refillTokens(now sim.Time) {
	if q.cfg.RateIOPS <= 0 {
		return
	}
	if dt := now - q.lastRefill; dt > 0 {
		q.tokens = math.Min(float64(q.cfg.Depth), q.tokens+q.cfg.RateIOPS*float64(dt)/1e9)
		q.lastRefill = now
	}
}

// Host is the multi-queue front end over one FTL controller.
type Host struct {
	eng    *sim.Engine
	ctrl   *ftl.Controller
	arb    Arbiter
	queues []*queue
	stats  []*TenantStats
	width  int

	inflight int // commands dispatched to the device, not yet complete
	pumping  bool
	repump   bool

	// gt maintains the FNV-1a replay hash; when the controller carries a
	// telemetry hub, grants also land in the shared trace event stream.
	gt  *telemetry.GrantTrace
	hub *telemetry.Hub // nil when telemetry is off

	scratch []QueueState // reused eligible-set buffer

	cmds pool.FreeList[cmdRec] // released per-command records
}

// New wires a host front end over the controller. The controller's
// engine drives all queue and completion events.
func New(ctrl *ftl.Controller, cfg Config) (*Host, error) {
	if len(cfg.Queues) == 0 {
		return nil, ErrNoQueues
	}
	for i, qc := range cfg.Queues {
		if err := qc.Check(); err != nil {
			return nil, fmt.Errorf("queue %d (%q): %w", i, qc.Name, err)
		}
	}
	arb := cfg.Arb
	if arb == nil {
		arb = NewRoundRobin()
	}
	h := &Host{
		eng:  ctrl.Engine(),
		ctrl: ctrl,
		arb:  arb,
		hub:  ctrl.TelemetryHub(),
	}
	if h.hub != nil {
		h.gt = h.hub.NewGrantTrace()
		h.hub.SetTenantSource(h)
	} else {
		h.gt = telemetry.NewGrantTrace()
	}
	sumDepth := 0
	for i, qc := range cfg.Queues {
		if qc.Name == "" {
			qc.Name = fmt.Sprintf("q%d", i)
		}
		if qc.Depth == 0 {
			qc.Depth = 32
		}
		if qc.Weight == 0 {
			qc.Weight = 1
		}
		sumDepth += qc.Depth
		q := &queue{
			cfg:     qc,
			fullErr: fmt.Errorf("%w: %s (depth %d)", ErrQueueFull, qc.Name, qc.Depth),
		}
		if qc.RateIOPS > 0 {
			q.tokens = float64(qc.Depth) // start full: an idle tenant may burst
		}
		// Every queue gets its wake-up: a rate can be set while running.
		q.onWake = func() {
			q.wakeArmed = false
			h.pump()
		}
		h.queues = append(h.queues, q)
		h.stats = append(h.stats, &TenantStats{
			Tenant:   qc.Name,
			Queue:    i,
			ReadLat:  metrics.NewHist(0),
			WriteLat: metrics.NewHist(0),
		})
	}
	h.width = cfg.DispatchWidth
	if h.width <= 0 {
		h.width = sumDepth
	}
	return h, nil
}

// Controller returns the FTL datapath behind the host interface.
func (h *Host) Controller() *ftl.Controller { return h.ctrl }

// Stats returns queue q's live tenant accounting (updated in place).
func (h *Host) Stats(q int) *TenantStats { return h.stats[q] }

// Grants returns the total arbitration grants issued.
func (h *Host) Grants() int64 { return h.gt.Grants() }

// TraceHash returns the FNV-1a hash over the full grant sequence —
// equal hashes mean bit-identical arbitration decisions.
func (h *Host) TraceHash() uint64 { return h.gt.Hash() }

// Outstanding returns commands submitted but not yet completed, across
// all queues.
func (h *Host) Outstanding() int {
	n := 0
	for _, q := range h.queues {
		n += q.occupancy
	}
	return n
}

// SetWeight changes queue qid's WRR weight online (clamped to >= 1).
// The next arbitration decision sees the new weight — this is the knob
// an SLO controller turns to re-divide device bandwidth between live
// tenants without draining or rebuilding the host.
func (h *Host) SetWeight(qid, weight int) error {
	if qid < 0 || qid >= len(h.queues) {
		return fmt.Errorf("%w: %d (have %d)", ErrBadQueue, qid, len(h.queues))
	}
	if weight < 1 {
		weight = 1
	}
	h.queues[qid].cfg.Weight = weight
	return nil
}

// SetRate changes queue qid's token-bucket IOPS cap online (0 removes
// the cap; a rate CheckRate refuses changes nothing). Enabling a cap
// starts the bucket full so the change throttles the future rate
// without retroactively debiting past I/O.
func (h *Host) SetRate(qid int, iops float64) error {
	if qid < 0 || qid >= len(h.queues) {
		return fmt.Errorf("%w: %d (have %d)", ErrBadQueue, qid, len(h.queues))
	}
	if err := CheckRate(iops); err != nil {
		return err
	}
	q := h.queues[qid]
	if iops == q.cfg.RateIOPS {
		return nil
	}
	q.cfg.RateIOPS = iops
	if iops > 0 {
		q.tokens = float64(q.cfg.Depth)
		q.lastRefill = h.eng.Now()
	}
	// A removed or loosened cap may unblock the queue immediately.
	h.pump()
	return nil
}

// Submit accepts a command into queue q, or rejects it with
// ErrQueueFull (the queue is at depth) / ErrBadQueue. Completion is
// delivered through cmd.Done in simulated time; advance the engine
// (e.g. Drain) to make progress.
func (h *Host) Submit(qid int, cmd Command) error {
	if qid < 0 || qid >= len(h.queues) {
		return fmt.Errorf("%w: %d (have %d)", ErrBadQueue, qid, len(h.queues))
	}
	q, st := h.queues[qid], h.stats[qid]
	if q.occupancy >= q.cfg.Depth {
		st.QueueFulls++
		return q.fullErr
	}
	now := h.eng.Now()
	if st.Submitted == 0 {
		st.FirstSubmitNs = now
	}
	st.Submitted++
	q.occupancy++
	e := sqe{cmd: cmd, submit: now}
	if h.hub != nil {
		pages := cmd.Pages
		if pages < 1 {
			pages = 1
		}
		e.sp = h.hub.BeginSpan(q.cfg.Name, qid, cmd.Op.String(), cmd.LPN, pages)
	}
	q.push(e)
	h.pump()
	return nil
}

// Drain advances the simulation until every submitted command has
// completed and the controller has quiesced.
func (h *Host) Drain() {
	h.eng.RunWhile(func() bool { return h.Outstanding() > 0 })
	h.eng.RunWhile(func() bool { return !h.ctrl.Drained() })
}

// pump runs the dispatch loop, flattening reentrant calls (a command
// can complete synchronously when a degraded device rejects its
// writes) into repeat passes.
func (h *Host) pump() {
	if h.pumping {
		h.repump = true
		return
	}
	h.pumping = true
	for {
		h.repump = false
		h.dispatch()
		if !h.repump {
			break
		}
	}
	h.pumping = false
}

// dispatch fetches commands through the arbiter while device slots and
// eligible queues remain.
func (h *Host) dispatch() {
	for h.inflight < h.width {
		now := h.eng.Now()
		el := h.scratch[:0]
		for i, q := range h.queues {
			if q.pendingLen() == 0 {
				continue
			}
			q.refillTokens(now)
			if q.cfg.RateIOPS > 0 && q.tokens < 1 {
				h.armWake(i, now)
				continue
			}
			el = append(el, QueueState{
				Index:      i,
				Weight:     q.cfg.Weight,
				Priority:   q.cfg.Priority,
				Pending:    q.pendingLen(),
				HeadWaitNs: now - q.sq[q.head].submit,
			})
		}
		h.scratch = el[:0]
		if len(el) == 0 {
			return
		}
		idx := h.arb.Pick(el, now)
		h.grant(idx, now)
	}
}

// grant fetches the head command of queue idx and issues it.
func (h *Host) grant(idx int, now sim.Time) {
	q, st := h.queues[idx], h.stats[idx]
	e := q.pop()
	if q.cfg.RateIOPS > 0 {
		q.tokens--
	}
	st.Grants++
	if wait := now - e.submit; wait > st.MaxHeadWaitNs {
		st.MaxHeadWaitNs = wait
	}
	h.gt.Grant(idx)
	if e.sp != nil {
		h.hub.GrantSpan(e.sp)
	}
	h.inflight++
	h.issue(idx, e)
}

// cmdRec tracks one dispatched command until its last page completes.
// Records are pooled per host; onPage is bound once, when the record is
// first built, so issuing a command allocates nothing.
type cmdRec struct {
	h    *Host
	live bool

	qid       int
	e         sqe
	remaining int // pages not yet completed
	rejected  int // pages the controller refused synchronously
	// Of a traced multi-page command, the page completing last is the
	// critical path; its probe supplies the span's device-side stages.
	lastPP *telemetry.PageProbe

	onPage func()
}

func (h *Host) getCmd() *cmdRec {
	c := h.cmds.Get()
	if c == nil {
		c = &cmdRec{h: h}
		c.onPage = c.pageDone
	}
	c.live = true
	return c
}

// pageDone retires one page; the last one completes the command.
func (c *cmdRec) pageDone() {
	pool.CheckLive(c.live, "host command record")
	c.remaining--
	if c.remaining > 0 {
		return
	}
	h, qid, e, rejected, pp := c.h, c.qid, c.e, c.rejected, c.lastPP
	c.live = false
	c.e, c.lastPP = sqe{}, nil
	h.cmds.Put(c)
	h.complete(qid, e, rejected, pp)
}

// issue drives one command's pages through the controller.
func (h *Host) issue(qid int, e sqe) {
	st := h.stats[qid]
	pages := e.cmd.Pages
	if pages < 1 {
		pages = 1
	}
	c := h.getCmd()
	c.qid, c.e, c.remaining, c.rejected = qid, e, pages, 0
	for p := 0; p < pages; p++ {
		lpn := ftl.LPN(e.cmd.LPN + int64(p))
		var pp *telemetry.PageProbe
		done := c.onPage
		if e.sp != nil {
			// Sampled span: this page carries a probe, and its completion
			// records it as the latest to finish.
			probe := &telemetry.PageProbe{Die: -1}
			pp = probe
			done = func() {
				c.lastPP = probe
				c.pageDone()
			}
		}
		if e.cmd.Op == Read {
			h.ctrl.Read(lpn, pp, done)
		} else if err := h.ctrl.Write(lpn, pp, done); err != nil {
			// Degraded (or out-of-range) page: counted and completed
			// immediately, like a media-error status in the CQE. When it
			// is the command's last page this releases c.
			c.rejected++
			st.RejectedPages++
			done()
		}
	}
}

// complete retires one command: per-tenant accounting, queue slot
// release, submitter callback, and a dispatch pass for the freed slot.
func (h *Host) complete(qid int, e sqe, rejectedPages int, pp *telemetry.PageProbe) {
	now := h.eng.Now()
	st := h.stats[qid]
	lat := now - e.submit
	if e.cmd.Op == Read {
		st.ReadLat.Add(lat)
		st.Reads++
	} else {
		st.WriteLat.Add(lat)
		st.Writes++
	}
	st.Completed++
	st.LastDoneNs = now
	h.queues[qid].occupancy--
	h.inflight--
	if e.sp != nil {
		h.hub.CompleteSpan(e.sp, pp, rejectedPages)
	}
	if e.cmd.Done != nil {
		e.cmd.Done(Completion{
			SubmitNs:      e.submit,
			DoneNs:        now,
			LatencyNs:     lat,
			RejectedPages: rejectedPages,
		})
	}
	h.pump()
}

// armWake schedules a dispatch pass for when the queue's token bucket
// refills enough to fetch its head command.
func (h *Host) armWake(qid int, now sim.Time) {
	q := h.queues[qid]
	if q.wakeArmed {
		return
	}
	wait := sim.Time(math.Ceil((1 - q.tokens) / q.cfg.RateIOPS * 1e9))
	if wait < 1 {
		wait = 1
	}
	q.wakeArmed = true
	h.stats[qid].Throttles++
	h.eng.After(wait, q.onWake)
}

// TenantView is a point-in-time view of one queue pair, for SLO
// controllers, dashboards and the sampler: a copy of its accounting
// (the two histograms are the live ones — cumulative, so latency-window
// tracking belongs to the consumer) beside the queue's occupancy and
// the current positions of its two online knobs.
type TenantView struct {
	TenantStats
	QueueLen int // commands waiting in the submission queue
	Weight   int
	RateIOPS float64 // 0 = uncapped
}

// Snapshot returns the view of every queue pair, in queue order.
func (h *Host) Snapshot() []TenantView {
	out := make([]TenantView, len(h.queues))
	for i, q := range h.queues {
		out[i] = TenantView{*h.stats[i], q.pendingLen(), q.cfg.Weight, q.cfg.RateIOPS}
	}
	return out
}

// TenantSamples implements telemetry.TenantSource: the views in the
// time-series sampler's JSONL schema.
func (h *Host) TenantSamples() []telemetry.TenantSample {
	out := make([]telemetry.TenantSample, len(h.queues))
	for i, v := range h.Snapshot() {
		out[i] = telemetry.TenantSample{
			Name:      v.Tenant,
			Completed: v.Completed,
			IOPS:      v.IOPS(),
			ReadP99:   v.ReadLat.Percentile(99),
			WriteP99:  v.WriteLat.Percentile(99),
			QueueLen:  v.QueueLen,
			Grants:    v.Grants,
			Throttles: v.Throttles,
		}
	}
	return out
}
