package workload

import (
	"errors"

	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/metrics"
	"cubeftl/internal/sim"
)

// RunConfig shapes a closed-loop execution.
type RunConfig struct {
	// Requests is how many host requests to complete.
	Requests int
	// QueueDepth is the number of outstanding host requests.
	QueueDepth int
	// DeadlineNs, when positive, stops the run at that absolute sim time
	// without draining (see MultiRunConfig.DeadlineNs).
	DeadlineNs sim.Time
}

// DefaultRunConfig returns a moderate closed-loop setup.
func DefaultRunConfig() RunConfig {
	return RunConfig{Requests: 20000, QueueDepth: 32}
}

// Result summarizes one single-stream run: its one tenant's result.
// RejectedPages counts page writes the controller refused synchronously
// (degraded read-only mode); rejected pages complete immediately so the
// closed loop keeps running against a failing device.
type Result struct {
	TenantResult
	// TraceHash fingerprints the host grant sequence: equal hashes
	// across two runs mean bit-identical dispatch replay.
	TraceHash uint64
}

// TenantSpec is one tenant stream of a multi-queue run: a generator
// driven closed-loop through its own host queue pair. The closed-loop
// window is the queue depth — the driver submits until the queue
// pushes back with ErrQueueFull and resumes on completions.
type TenantSpec struct {
	Gen      Generator
	Requests int
	Queue    host.QueueConfig
}

// MultiRunConfig shapes a multi-tenant run through the host layer.
type MultiRunConfig struct {
	// Arbiter is the queue arbitration policy (nil = round-robin).
	Arbiter host.Arbiter
	// DispatchWidth bounds commands concurrently outstanding at the
	// device across all tenants — the contended resource QoS divides.
	// 0 defaults to the sum of queue depths.
	DispatchWidth int
	// DeadlineNs, when positive, stops the run at that absolute sim
	// time regardless of request budgets and skips the drain — the
	// device is left mid-flight with buffered writes, in-flight
	// programs, and possibly active GC. This is how the power-cut
	// tests park the device at the cut instant.
	DeadlineNs sim.Time
}

// TenantResult is one tenant's view of a multi-queue run: the host's
// ledger for its queue pair as the run left it — Completed requests,
// RejectedPages, QueueFulls, Grants, Throttles, MaxHeadWaitNs, and the
// host-visible (SQ wait + device) ReadLat / WriteLat — and the span the
// tenant ran over.
type TenantResult struct {
	host.TenantStats
	ElapsedNs sim.Time // run start to the tenant's last completion
}

// IOPS is the tenant's completed requests per simulated second of the
// run (the ledger's own IOPS counts from the tenant's first submit).
func (t TenantResult) IOPS() float64 { return metrics.IOPS(t.Completed, t.ElapsedNs) }

// MultiResult summarizes a multi-tenant run.
type MultiResult struct {
	Tenants   []TenantResult
	ElapsedNs sim.Time
	// TraceHash fingerprints the arbitration grant sequence: equal
	// hashes mean bit-identical scheduling decisions.
	TraceHash uint64
	Grants    int64
}

// Aggregate returns cross-tenant read and write latency histograms
// (merged per-tenant distributions).
func (m MultiResult) Aggregate() (read, write *metrics.Hist) {
	read, write = metrics.NewHist(0), metrics.NewHist(0)
	for _, t := range m.Tenants {
		read.Merge(t.ReadLat)
		write.Merge(t.WriteLat)
	}
	return read, write
}

// tenantDriver runs one generator closed-loop against its host queue.
type tenantDriver struct {
	h         *host.Host
	qid       int
	gen       Generator
	requests  int
	eng       *sim.Engine
	issued    int
	completed int
	// held is a request generated but not yet admitted (queue full): the
	// generator's state has advanced, so it must not be regenerated.
	held      Request
	holding   bool
	gateUntil sim.Time // stream-wide pause (burst boundaries)
	gateArmed bool

	// Bound once: the completion callback every command carries, and the
	// gate-reopen event.
	onDone func(host.Completion)
	onGate func()
}

func newTenantDriver(h *host.Host, qid int, gen Generator, requests int, eng *sim.Engine) *tenantDriver {
	d := &tenantDriver{h: h, qid: qid, gen: gen, requests: requests, eng: eng}
	d.onDone = func(host.Completion) {
		d.completed++
		d.pump()
	}
	d.onGate = func() {
		d.gateArmed = false
		d.pump()
	}
	return d
}

func (d *tenantDriver) done() bool { return d.completed >= d.requests }

func (d *tenantDriver) pump() {
	if d.eng.Now() < d.gateUntil {
		// The stream is paused between bursts; resume issuing when the
		// gate opens.
		if !d.gateArmed {
			d.gateArmed = true
			d.eng.Schedule(d.gateUntil, d.onGate)
		}
		return
	}
	for d.issued < d.requests {
		r := d.held
		if !d.holding {
			r = d.gen.Next()
		}
		op := host.Read
		if r.Op == Write {
			op = host.Write
		}
		err := d.h.Submit(d.qid, host.Command{Op: op, LPN: r.LPN, Pages: r.Pages, Done: d.onDone})
		if err != nil {
			// Queue full: hold the request and retry on a completion.
			d.held, d.holding = r, true
			return
		}
		d.holding = false
		d.issued++
		if r.ThinkNs > 0 {
			// A burst ended: gate the whole stream.
			d.gateUntil = d.eng.Now() + r.ThinkNs
			d.pump()
			return
		}
	}
}

// RunTenants drives every tenant's generator closed-loop through a
// multi-queue host front end until each tenant completes its request
// budget, then drains the controller. Per-tenant latency is
// host-visible: submission-queue wait plus device service, so
// arbitration and rate-limit effects show up in the histograms.
func RunTenants(ctrl *ftl.Controller, specs []TenantSpec, cfg MultiRunConfig) (MultiResult, error) {
	qcs := make([]host.QueueConfig, len(specs))
	for i, s := range specs {
		qc := s.Queue
		if qc.Name == "" {
			qc.Name = s.Gen.Name()
		}
		qcs[i] = qc
	}
	h, err := host.New(ctrl, host.Config{
		Queues:        qcs,
		Arb:           cfg.Arbiter,
		DispatchWidth: cfg.DispatchWidth,
	})
	if err != nil {
		return MultiResult{}, err
	}
	eng := ctrl.Engine()
	start := eng.Now()

	drivers := make([]*tenantDriver, len(specs))
	for i, s := range specs {
		n := s.Requests
		if n <= 0 {
			n = DefaultRunConfig().Requests
		}
		drivers[i] = newTenantDriver(h, i, s.Gen, n, eng)
	}
	for _, d := range drivers {
		d.pump()
	}
	if cfg.DeadlineNs > 0 {
		// Deadline mode: halt mid-flight at the cut instant, no drain.
		eng.RunUntil(cfg.DeadlineNs)
	} else {
		eng.RunWhile(func() bool {
			for _, d := range drivers {
				if !d.done() {
					return true
				}
			}
			return false
		})
		// Quiesce buffered state so back-to-back runs start clean.
		eng.RunWhile(func() bool { return !ctrl.Drained() })
	}

	out := MultiResult{TraceHash: h.TraceHash(), Grants: h.Grants()}
	for i := range specs {
		st := h.Stats(i)
		tr := TenantResult{TenantStats: *st, ElapsedNs: st.LastDoneNs - start}
		out.Tenants = append(out.Tenants, tr)
		if tr.ElapsedNs > out.ElapsedNs {
			out.ElapsedNs = tr.ElapsedNs
		}
	}
	return out, nil
}

// Run drives gen against ctrl with a closed-loop queue until
// cfg.Requests complete, then drains the controller. It is a thin
// wrapper over a single-queue host front end with the queue depth as
// both the admission bound and the device dispatch window, which
// reproduces the classic single-stream closed loop.
func Run(ctrl *ftl.Controller, gen Generator, cfg RunConfig) Result {
	if cfg.Requests <= 0 {
		cfg.Requests = DefaultRunConfig().Requests
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultRunConfig().QueueDepth
	}
	mr, err := RunTenants(ctrl, []TenantSpec{{
		Gen:      gen,
		Requests: cfg.Requests,
		Queue:    host.QueueConfig{Name: gen.Name(), Depth: cfg.QueueDepth},
	}}, MultiRunConfig{DispatchWidth: cfg.QueueDepth, DeadlineNs: cfg.DeadlineNs})
	if err != nil {
		// Unreachable: the wrapper always passes one well-formed queue.
		panic(err)
	}
	return Result{TenantResult: mr.Tenants[0], TraceHash: mr.TraceHash}
}

// Prefill sequentially writes pages [0, n) through the controller so a
// measurement run starts from a mapped, steady-state device, then
// drains. It stops at the first synchronous rejection (a device that
// degraded to read-only mid-prefill cannot accept more) and returns
// the number of pages actually written.
func Prefill(ctrl *ftl.Controller, n int64) int64 {
	eng := ctrl.Engine()
	const qd = 64
	var issued, completed int64
	outstanding := 0
	stopped := false
	var pump func()
	acked := func() {
		completed++
		outstanding--
		pump()
	}
	pump = func() {
		for !stopped && outstanding < qd && issued < n {
			lpn := ftl.LPN(issued)
			err := ctrl.Write(lpn, nil, acked)
			if err != nil {
				// A degraded (or mis-sized) device cannot be prefilled
				// further: stop issuing instead of spinning through the
				// remaining pages as fake completions.
				if !errors.Is(err, ftl.ErrDegraded) && !errors.Is(err, ftl.ErrBadLPN) {
					panic(err) // unknown datapath error: surface it
				}
				stopped = true
				return
			}
			issued++
			outstanding++
		}
	}
	pump()
	eng.RunWhile(func() bool { return completed < issued })
	eng.RunWhile(func() bool { return !ctrl.Drained() })
	return completed
}
