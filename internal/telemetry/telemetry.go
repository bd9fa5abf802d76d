// Package telemetry is the observability layer of the simulator: per-IO
// spans threaded through the host/FTL/NAND datapath, a central metrics
// registry unifying the histograms and counters scattered across the
// stack, stage-latency attribution (where did this p99 come from?), a
// sim-clock-driven time-series sampler emitting JSONL snapshots, and a
// Chrome trace_event exporter so runs open directly in Perfetto.
//
// Everything is deterministic: timestamps are simulated time, reservoir
// sampling draws from a seed-derived stream, and export orderings are
// fully specified — a fixed-seed run produces byte-identical traces and
// stats files on every execution.
//
// The layer is strictly zero-overhead when disabled: the datapath holds
// a nil *Hub and nil *PageProbe and every hook guards on them; no
// allocation, no clock reads, no event reordering. Enabling telemetry
// must never change simulation results — hooks observe, they do not
// schedule events.
package telemetry

import (
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
)

// Stage indexes one component of a host command's end-to-end latency.
type Stage int

// Stages of the host-visible latency decomposition. They partition the
// [submit, complete] interval: StageQueue is submission-queue head wait
// (admission to arbitration grant); the device-side stages are taken
// from the critical path of the command's last-completing page; and
// StageOther absorbs any residual (e.g. sibling-page scheduling gaps)
// so the per-stage sum always equals the end-to-end latency exactly.
const (
	StageQueue     Stage = iota // submit → arbitration grant (SQ wait)
	StageAdmit                  // write backpressure: waiting for a buffer slot
	StageBuffer                 // buffer/DMA service (buffer-hit reads, write admit)
	StagePlaneWait              // waiting for the NAND plane resource
	StageNAND                   // cell operation (first-attempt tREAD / tPROG)
	StageRetry                  // extra senses: read-retry ladder + fault re-issues
	StageBusWait                // waiting for the channel (bus) resource
	StageBusXfer                // data transfer over the channel
	StageOther                  // residual (parallel-page gaps, rounding)
	NumStages
)

// StageNames are the printable stage labels, indexed by Stage.
var StageNames = [NumStages]string{
	"queue", "admit", "buffer", "plane_wait", "nand", "retry",
	"bus_wait", "bus_xfer", "other",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "stage?"
	}
	return StageNames[s]
}

// Chrome trace process IDs: one per layer of the stack, so Perfetto
// groups tracks by layer (host queues, FTL dies, NAND dies).
const (
	PidHost = 1 // tid = host queue index
	PidFTL  = 2 // tid = die index (flush, GC, degraded events)
	PidNAND = 3 // tid = die index (tREAD/tPROG/tERASE cell operations)
)

// Span is the record of one host command's journey through the stack.
// Stage boundaries are simulated-time; the Stages vector is filled at
// completion and always sums to DoneNs-SubmitNs.
type Span struct {
	ID     uint64
	Tenant string
	Queue  int
	Op     string // "read" | "write"
	LPN    int64
	Pages  int
	Die    int // die of the last-completing page; -1 if none (buffered)

	SubmitNs int64
	GrantNs  int64
	DoneNs   int64

	Stages  [NumStages]int64
	Retries int // read-retry senses on the attributed page

	RejectedPages int // pages refused synchronously (degraded device)
}

// TotalNs is the host-visible latency.
func (s *Span) TotalNs() int64 { return s.DoneNs - s.SubmitNs }

// PageProbe accumulates the device-side latency components of one page
// operation. The host attaches one probe per page of a traced command
// and attributes the command's device stages to the probe of the page
// that completed last (the critical path).
type PageProbe struct {
	Die      int // die the page op ran on; -1 if it never reached NAND
	Buffered bool

	AdmitWaitNs int64 // write: waiting for a buffer slot
	BufferNs    int64 // buffer service / DMA time
	PlaneWaitNs int64 // waiting for the plane resource
	NANDNs      int64 // first-attempt cell time
	RetryNs     int64 // retry senses + transient-fault re-issues
	BusWaitNs   int64 // waiting for the channel
	BusXferNs   int64 // transfer time on the channel
	Retries     int
}

// Hub is the per-SSD telemetry root: the registry, the stage-latency
// attribution set and the (optional) tracer; StartSampler reads it.
// A nil *Hub disables everything.
type Hub struct {
	eng      *sim.Engine
	registry *Registry
	stages   *StageSet
	tracer   *Tracer
	events   *EventLog
	seed     uint64

	nextSpanID uint64

	// Span sampling: with sampleEvery > 1, BeginSpan traces only one
	// in every sampleEvery commands (counter-based, phase-offset by a
	// seed-derived draw) and returns nil for the rest — the datapath's
	// nil-probe guards then skip every per-IO telemetry cost. The
	// decision consumes no sim RNG and schedules nothing, so sampling
	// preserves passivity by construction.
	sampleEvery uint64
	samplePhase uint64
	spansSeen   uint64
	opsSeen     uint64

	tenantSrc TenantSource
	deviceSrc DeviceSource
}

// NewHub returns an enabled telemetry hub on the engine. seed derives
// the deterministic sampling streams (reservoirs).
func NewHub(eng *sim.Engine, seed uint64) *Hub {
	return &Hub{
		eng:      eng,
		registry: NewRegistry(),
		stages:   NewStageSet(0, seed),
		seed:     seed,
	}
}

// Registry returns the hub's metrics registry.
func (h *Hub) Registry() *Registry { return h.registry }

// Stages returns the stage-latency attribution set.
func (h *Hub) Stages() *StageSet { return h.stages }

// Tracer returns the span/event tracer, or nil when tracing is off.
func (h *Hub) Tracer() *Tracer { return h.tracer }

// EnableTracer turns on span and event collection for Chrome export;
// the span reservoir draws from the hub's seed.
func (h *Hub) EnableTracer() *Tracer {
	h.tracer = NewTracer(h.seed)
	return h.tracer
}

// SetTenantSource registers the host front end as the sampler's source
// of per-tenant samples (the latest registration wins: each run builds
// a fresh host over the same controller).
func (h *Hub) SetTenantSource(src TenantSource) { h.tenantSrc = src }

// SetDeviceSource registers the device as the sampler's source of
// per-die utilization samples.
func (h *Hub) SetDeviceSource(src DeviceSource) { h.deviceSrc = src }

// QueueNames returns the registered host front end's tenant names in
// queue order — the Chrome trace's host-track labels. Nil when no host
// is bound.
func (h *Hub) QueueNames() []string {
	if h.tenantSrc == nil {
		return nil
	}
	samples := h.tenantSrc.TenantSamples()
	names := make([]string, len(samples))
	for i := range samples {
		names[i] = samples[i].Name
	}
	return names
}

// SetSpanSample configures 1-in-every span sampling. every <= 1
// restores full tracing. The sampled subset is chosen by a command
// counter with a seed-derived phase, so a fixed-seed replay samples
// the exact same commands, and the stage-attribution set and tracer
// see an unbiased systematic sample of the workload.
func (h *Hub) SetSpanSample(every int) {
	if every <= 1 {
		h.sampleEvery, h.samplePhase = 0, 0
		return
	}
	h.sampleEvery = uint64(every)
	h.samplePhase = newReservoirRNG(h.seed, "span-sample").Uint64n(uint64(every))
}

// Tracing reports whether a tracer is collecting, through a possibly
// nil hub — datapath call sites use it to skip building event args
// (maps, strings) when nothing would record them.
func (h *Hub) Tracing() bool { return h != nil && h.tracer != nil }

// TraceOp reports whether the next device operation event should be
// recorded, advancing the op-sampling counter. With sampling off it is
// simply Tracing(); with sampling on it passes 1-in-sampleEvery ops,
// deterministically. Nil-safe.
func (h *Hub) TraceOp() bool {
	if h == nil || h.tracer == nil {
		return false
	}
	if h.sampleEvery > 1 {
		idx := h.opsSeen
		h.opsSeen++
		return (idx+h.samplePhase)%h.sampleEvery == 0
	}
	return true
}

// BeginSpan opens a span for one host command at the current simulated
// time. With span sampling configured it returns nil for the commands
// outside the sample — the host's nil-span guards then skip probe
// allocation, grant marks, and completion attribution entirely.
func (h *Hub) BeginSpan(tenant string, queue int, op string, lpn int64, pages int) *Span {
	if h.sampleEvery > 1 {
		idx := h.spansSeen
		h.spansSeen++
		if (idx+h.samplePhase)%h.sampleEvery != 0 {
			return nil
		}
	}
	h.nextSpanID++
	return &Span{
		ID:       h.nextSpanID,
		Tenant:   tenant,
		Queue:    queue,
		Op:       op,
		LPN:      lpn,
		Pages:    pages,
		Die:      -1,
		SubmitNs: h.eng.Now(),
		GrantNs:  -1,
	}
}

// GrantSpan marks the arbitration grant: the queue stage ends here.
func (h *Hub) GrantSpan(sp *Span) { sp.GrantNs = h.eng.Now() }

// CompleteSpan closes a span, attributing its end-to-end latency to
// stages: queue wait from the grant mark, device-side components from
// the probe of the last-completing page, and a residual "other" stage
// so the decomposition sums exactly to the total. The span feeds the
// stage-attribution set and, when tracing is on, the span ring and
// reservoir.
func (h *Hub) CompleteSpan(sp *Span, pp *PageProbe, rejectedPages int) {
	now := h.eng.Now()
	sp.DoneNs = now
	sp.RejectedPages = rejectedPages
	grant := sp.GrantNs
	if grant < sp.SubmitNs {
		grant = sp.SubmitNs // never granted (fully rejected command)
	}
	sp.Stages[StageQueue] = grant - sp.SubmitNs
	if pp != nil {
		sp.Die = pp.Die
		sp.Retries = pp.Retries
		sp.Stages[StageAdmit] = pp.AdmitWaitNs
		sp.Stages[StageBuffer] = pp.BufferNs
		sp.Stages[StagePlaneWait] = pp.PlaneWaitNs
		sp.Stages[StageNAND] = pp.NANDNs
		sp.Stages[StageRetry] = pp.RetryNs
		sp.Stages[StageBusWait] = pp.BusWaitNs
		sp.Stages[StageBusXfer] = pp.BusXferNs
	}
	var accounted int64
	for st := StageQueue; st < StageOther; st++ {
		accounted += sp.Stages[st]
	}
	if resid := sp.TotalNs() - accounted; resid > 0 {
		sp.Stages[StageOther] = resid
	}

	vec := StageVec{TotalNs: sp.TotalNs(), Stage: sp.Stages}
	h.stages.Observe("tenant/"+sp.Tenant+"/"+sp.Op, vec)
	if sp.Op == "read" && sp.Die >= 0 {
		h.stages.Observe(dieScope(sp.Die), vec)
	}
	if h.tracer != nil {
		h.tracer.AddSpan(*sp)
	}
}

// dieScope builds the per-die read-attribution scope name without fmt.
func dieScope(die int) string {
	if die < 10 {
		return "die/" + string(rune('0'+die)) + "/read"
	}
	return "die/" + itoa(die) + "/read"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// OpEvent records one operation (or instant) on a track for the Chrome
// trace: a flush or GC cycle on an FTL die track, a cell operation on a
// NAND die track. DurNs < 0 marks an instant event.
type OpEvent struct {
	Name    string
	Pid     int
	Tid     int
	StartNs int64
	DurNs   int64
	Args    map[string]int64
}

// Event records an operation event when tracing is on.
func (h *Hub) Event(pid, tid int, name string, startNs, durNs int64, args map[string]int64) {
	if h.tracer == nil {
		return
	}
	h.tracer.AddEvent(OpEvent{Name: name, Pid: pid, Tid: tid, StartNs: startNs, DurNs: durNs, Args: args})
}

// Instant records an instantaneous event (a degraded-die transition, a
// requeue) at the current simulated time when tracing is on.
func (h *Hub) Instant(pid, tid int, name string) {
	if h.tracer == nil {
		return
	}
	h.tracer.AddEvent(OpEvent{Name: name, Pid: pid, Tid: tid, StartNs: h.eng.Now(), DurNs: -1})
}

// NewGrantTrace builds a grant trace whose event stream is shared with
// the hub's tracer: every arbitration grant updates the FNV replay hash
// and, when tracing is on, lands in the same bounded event ring the
// spans and device operations feed.
func (h *Hub) NewGrantTrace() *GrantTrace {
	gt := NewGrantTrace()
	gt.hub = h
	return gt
}

// newReservoirRNG derives the deterministic stream used by reservoir
// sampling (spans, stage vectors).
func newReservoirRNG(seed uint64, label string) *rng.Source {
	return rng.New(seed).Derive("telemetry/" + label)
}
