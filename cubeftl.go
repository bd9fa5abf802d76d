// Package cubeftl is a full-system reproduction of "Exploiting Process
// Similarity of 3D Flash Memory for High Performance SSDs" (Shim et al.,
// MICRO-52, 2019).
//
// It provides, from the bottom up:
//
//   - a statistical process model of 3D TLC NAND (inter-layer
//     variability, intra-layer similarity, aging),
//   - a micro-operation-level NAND chip simulator (ISPP program loops,
//     verify accounting, read-retry ladders, erase, wear),
//   - a discrete-event SSD (buses, chips, write buffer, GC),
//   - five FTLs: the PS-unaware pageFTL, vertFTL (Hung et al.) and
//     ispFTL (Pan et al.) baselines, and the paper's PS-aware cubeFTL
//     (OPM + WAM + MOS + safety check) plus its cubeFTL- ablation,
//   - the paper's six evaluation workloads, and
//   - runners that regenerate every data figure of the paper.
//
// This file is the public facade: build a simulated SSD, drive it with
// host I/O or one of the named workloads, and read back measurements.
// Everything here wraps the richer packages under internal/.
package cubeftl

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/metrics"
	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/stack"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/workload"
)

// FTL names accepted by Options.FTL.
const (
	FTLPage      = "page"  // PS-unaware page-mapping baseline
	FTLVert      = "vert"  // static V_Final reduction (Hung et al. [13])
	FTLIsp       = "isp"   // wear-keyed ISPP-step scaling (Pan et al. [31])
	FTLCube      = "cube"  // the paper's PS-aware cubeFTL
	FTLCubeMinus = "cube-" // cubeFTL with the WAM disabled (§6.3)
)

// Options configures a simulated SSD: it is the device description
// every layer shares (stack.Spec), so what the binaries parse from
// their flags, what New builds and what Remount rebuilds are one value.
// The zero value selects the paper's configuration scaled to a small
// device; call DefaultOptions for the full 32 GB evaluation target.
type Options = stack.Spec

// DefaultOptions returns the paper's full evaluation device (2 buses x
// 4 chips x 428 blocks ~= 31.5 GB) running cubeFTL.
func DefaultOptions() Options {
	return Options{
		FTL:            FTLCube,
		Channels:       2,
		DiesPerChannel: 4,
		BlocksPerChip:  428,
		Seed:           1,
	}
}

// SSD is a simulated 3D-NAND solid-state drive with one of the paper's
// FTLs. It is not safe for concurrent use: the simulation is a single
// deterministic event loop.
type SSD struct {
	// st is the built device stack; eng, dev and ctrl are shorthands
	// into it, replaced together by Remount (see adopt).
	st      *stack.Stack
	eng     *sim.Engine
	dev     *ssd.Device
	ctrl    *ftl.Controller
	hub     *telemetry.Hub     // nil until EnableTelemetry
	sampler *telemetry.Sampler // nil until StartStats
	stats   *telemetry.JSONL   // StartStats' sink

	// outstanding counts facade-issued host ops not yet completed (Run's
	// stop condition under Options.Recovery — the manager's checkpoint
	// timer keeps the event queue non-empty forever, so Run cannot wait
	// for queue drain).
	outstanding int
	onIODone    func() // completion of a facade I/O issued without a callback
}

// New builds a simulated SSD.
func New(opts Options) (*SSD, error) {
	st, err := stack.Build(opts)
	if err != nil {
		return nil, err
	}
	s := &SSD{st: st}
	st.HostBusy = func() bool { return s.outstanding > 0 }
	s.onIODone = func() { s.outstanding-- }
	s.adopt()
	return s, nil
}

// adopt re-reads the shorthands from the stack (at build, and again
// after a recovery mount replaced its volatile half).
func (s *SSD) adopt() { s.eng, s.dev, s.ctrl = s.st.Eng, s.st.Dev, s.st.Ctrl }

// Channels returns the device's channel (bus) count.
func (s *SSD) Channels() int { return s.dev.Channels() }

// DiesPerChannel returns the NAND dies behind each channel.
func (s *SSD) DiesPerChannel() int { return s.dev.Config().DiesPerChannel }

// FTLName returns the active FTL's name.
func (s *SSD) FTLName() string { return s.ctrl.Policy().Name() }

// LogicalPages returns the exported capacity in 16 KB pages.
func (s *SSD) LogicalPages() int { return s.ctrl.LogicalPages() }

// CapacityBytes returns the exported logical capacity.
func (s *SSD) CapacityBytes() int64 { return int64(s.ctrl.LogicalPages()) * 16 * 1024 }

// Now returns the current simulated time.
func (s *SSD) Now() time.Duration { return time.Duration(s.eng.Now()) }

// ErrBadLPN reports an out-of-range logical page number. Alias of the
// internal FTL error so errors.Is works across the facade regardless
// of which layer rejected the LPN.
var ErrBadLPN = ftl.ErrBadLPN

// ErrDegraded reports a write rejected because the device has dropped
// to read-only degraded mode (free-block exhaustion from grown bad
// blocks). Reads keep working. Alias of the internal FTL error so
// errors.Is works across the facade.
var ErrDegraded = ftl.ErrDegraded

// Write enqueues a host page write; done (optional) runs in simulated
// time when the write is acknowledged. Call Run to advance the
// simulation. A degraded (read-only) device rejects writes with
// ErrDegraded, a powered-off one (PowerCut, until Remount) all I/O with
// ErrPowerLost.
func (s *SSD) Write(lpn int64, done func()) error {
	if err := s.st.Up(); err != nil {
		return err
	}
	if lpn < 0 || lpn >= int64(s.ctrl.LogicalPages()) {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	s.outstanding++
	err := s.ctrl.Write(ftl.LPN(lpn), nil, s.completion(done))
	if err != nil {
		s.outstanding--
	}
	return err
}

// completion wraps a caller's optional callback with the facade's
// outstanding-I/O accounting. Without a callback it is the accounting
// step alone, bound once per device.
func (s *SSD) completion(done func()) func() {
	if done == nil {
		return s.onIODone
	}
	return func() {
		s.outstanding--
		done()
	}
}

// Degraded reports whether the whole device has dropped to read-only
// mode (every die degraded).
func (s *SSD) Degraded() bool { return s.ctrl.Degraded() }

// DieDegraded reports whether one die (0 <= die <
// Channels()*DiesPerChannel()) has dropped to read-only. A single dead
// die does not stop the device: writes keep flowing to the survivors.
func (s *SSD) DieDegraded(die int) bool { return s.ctrl.DieDegraded(die) }

// Read enqueues a host page read; done (optional) runs in simulated
// time when data is returned.
func (s *SSD) Read(lpn int64, done func()) error {
	if err := s.st.Up(); err != nil {
		return err
	}
	if lpn < 0 || lpn >= int64(s.ctrl.LogicalPages()) {
		return fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	s.outstanding++
	s.ctrl.Read(ftl.LPN(lpn), nil, s.completion(done))
	return nil
}

// Run advances the simulation until all queued host I/O has completed.
func (s *SSD) Run() {
	if s.st.Up() != nil {
		return // the cut engine's queue is what the power cut destroyed
	}
	if s.st.Mgr != nil {
		// The recovery manager's checkpoint timer keeps the event queue
		// populated forever, so run by condition, not by queue drain.
		s.eng.RunWhile(func() bool { return s.outstanding > 0 || !s.ctrl.Drained() })
		return
	}
	s.eng.Run()
	s.eng.RunWhile(func() bool { return !s.ctrl.Drained() })
}

// Prefill sequentially writes logical pages [0, n) so subsequent reads
// hit mapped flash and the device reaches steady state. It returns the
// pages actually written: fewer than n if the device degraded to
// read-only (or n exceeded the logical capacity) mid-prefill, none on a
// device without power.
func (s *SSD) Prefill(n int64) int64 {
	if s.st.Up() != nil {
		return 0
	}
	return workload.Prefill(s.ctrl, n)
}

// ResetStats clears accumulated measurements (use after Prefill).
func (s *SSD) ResetStats() { s.ctrl.ResetStats() }

// Workloads lists every named workload Run/RunTenants accept: the six
// evaluation streams plus the extended profiles (YCSB-B, YCSB-C, Bulk,
// Mixed).
func Workloads() []string {
	names := make([]string, 0, len(workload.Extended))
	for _, p := range workload.Extended {
		names = append(names, p.Name)
	}
	return names
}

// RunStats summarizes a workload run on the SSD.
type RunStats struct {
	Requests  int64
	Elapsed   time.Duration // simulated
	IOPS      float64
	ReadP50   time.Duration
	ReadP90   time.Duration
	ReadP99   time.Duration
	WriteP50  time.Duration
	WriteP90  time.Duration
	WriteP99  time.Duration
	MeanTPROG time.Duration

	ReadRetries    int64
	GCRuns         int64
	Reprograms     int64
	BufferHits     int64
	DataMismatches int64

	// Fault handling (non-zero only with fault injection enabled).
	ProgramFailures int64
	EraseFailures   int64
	ReadFaults      int64
	RetiredBlocks   int64
	FaultRecoveries int64
	WriteRejects    int64
	DegradedDies    int64
	FencedPrograms  int64

	// TraceHash fingerprints the host dispatch grant sequence: equal
	// hashes across two runs mean bit-identical replay.
	TraceHash uint64
}

// RunWorkload drives one of the named workloads (see Workloads) against
// the SSD for the given number of requests at the given queue depth.
func (s *SSD) RunWorkload(name string, requests, queueDepth int) (RunStats, error) {
	return s.RunWorkloadUntil(name, requests, queueDepth, 0)
}

// run drives gen closed-loop against the device, if it has power.
func (s *SSD) run(gen workload.Generator, cfg workload.RunConfig) (RunStats, error) {
	if err := s.st.Up(); err != nil {
		return RunStats{}, err
	}
	res := workload.Run(s.ctrl, gen, cfg)
	return s.runStats(res.Completed, res.ElapsedNs, res.ReadLat, res.WriteLat, res.TraceHash), nil
}

// runStats assembles a run's RunStats from what the host side measured
// — requests completed over elapsed simulated time, the read and write
// latency distributions, the grant-sequence hash — and the controller's
// counters for the same window.
func (s *SSD) runStats(requests int64, elapsed sim.Time, read, write *metrics.Hist, traceHash uint64) RunStats {
	st := s.ctrl.Stats()
	return RunStats{
		Requests:       requests,
		Elapsed:        time.Duration(elapsed),
		IOPS:           metrics.IOPS(requests, elapsed),
		ReadP50:        time.Duration(read.Percentile(50)),
		ReadP90:        time.Duration(read.Percentile(90)),
		ReadP99:        time.Duration(read.Percentile(99)),
		WriteP50:       time.Duration(write.Percentile(50)),
		WriteP90:       time.Duration(write.Percentile(90)),
		WriteP99:       time.Duration(write.Percentile(99)),
		MeanTPROG:      time.Duration(st.MeanTPROGNs()),
		ReadRetries:    st.ReadRetries,
		GCRuns:         st.GCCount,
		Reprograms:     st.Reprograms,
		BufferHits:     st.BufferHits,
		DataMismatches: st.DataMismatches,

		ProgramFailures: st.ProgramFailures,
		EraseFailures:   st.EraseFailures,
		ReadFaults:      st.ReadFaults,
		RetiredBlocks:   st.RetiredBlocks,
		FaultRecoveries: st.FaultRecoveries,
		WriteRejects:    st.WriteRejects,
		DegradedDies:    st.DegradedDies,
		FencedPrograms:  st.FencedPrograms,
		TraceHash:       traceHash,
	}
}

// Arbitration policy names accepted by RunTenants.
const (
	ArbRR   = "rr"   // round-robin
	ArbWRR  = "wrr"  // weighted round-robin over TenantConfig.Weight
	ArbPrio = "prio" // strict priority with a starvation guard
)

// DefaultStarvationGuard bounds how long a low-priority queue's head
// command can wait under the "prio" arbiter before it is served ahead
// of higher-priority queues.
const DefaultStarvationGuard = 2 * time.Millisecond

// TenantConfig describes one tenant stream of a multi-tenant run: a
// named workload driven closed-loop through its own NVMe-style
// submission/completion queue pair.
type TenantConfig struct {
	Name     string // defaults to Workload
	Workload string // one of Workloads()
	Requests int    // requests to complete (default 10000)
	// QueueDepth bounds the tenant's outstanding commands (admission
	// control; default 16).
	QueueDepth int
	// Weight is the WRR share (>= 1; "wrr" arbiter).
	Weight int
	// Priority is the strict-priority class; higher is more urgent
	// ("prio" arbiter).
	Priority int
	// RateIOPS token-bucket rate limits the tenant; 0 = unlimited.
	RateIOPS float64
}

// TenantRunStats is one tenant's view of a multi-tenant run. Latencies
// are host-visible: submission-queue wait plus device service.
type TenantRunStats struct {
	Name     string
	Requests int64
	Elapsed  time.Duration
	IOPS     float64

	ReadP50, ReadP99, ReadP999    time.Duration
	WriteP50, WriteP99, WriteP999 time.Duration

	// QueueFulls counts submissions bounced by admission control,
	// Throttles rate-limiter stalls, Rejects degraded-device write
	// rejections, Grants arbitration wins.
	QueueFulls  int64
	Throttles   int64
	Rejects     int64
	Grants      int64
	MaxHeadWait time.Duration
}

// MultiTenantStats summarizes a multi-tenant run.
type MultiTenantStats struct {
	Tenants []TenantRunStats
	Elapsed time.Duration
	// TraceHash fingerprints the arbitration grant sequence — equal
	// hashes mean bit-identical scheduling for a fixed seed.
	TraceHash uint64
	Grants    int64
	// Aggregate percentiles across every tenant (merged histograms).
	AggReadP99  time.Duration
	AggWriteP99 time.Duration
}

// RunTenants drives the tenant streams concurrently through an
// NVMe-style multi-queue host front end feeding the FTL, arbitrated by
// arb (ArbRR, ArbWRR or ArbPrio). dispatchWidth bounds commands
// concurrently outstanding at the device across all tenants — the
// contended resource QoS divides; 0 defaults to the sum of queue
// depths.
func (s *SSD) RunTenants(tenants []TenantConfig, arb string, dispatchWidth int) (MultiTenantStats, error) {
	if err := s.st.Up(); err != nil {
		return MultiTenantStats{}, err
	}
	if len(tenants) == 0 {
		return MultiTenantStats{}, fmt.Errorf("cubeftl: no tenants")
	}
	arbiter, err := host.NewArbiter(arb, int64(DefaultStarvationGuard))
	if err != nil {
		return MultiTenantStats{}, err
	}
	specs := make([]workload.TenantSpec, 0, len(tenants))
	for i, tc := range tenants {
		prof, ok := workload.ByName(tc.Workload)
		if !ok {
			return MultiTenantStats{}, fmt.Errorf("cubeftl: unknown workload %q (have %v)", tc.Workload, Workloads())
		}
		name := tc.Name
		if name == "" {
			name = prof.Name
		}
		requests := tc.Requests
		if requests <= 0 {
			requests = 10000
		}
		depth := tc.QueueDepth
		if depth <= 0 {
			depth = 16
		}
		seed := s.dev.Config().Seed + 0xABCD + uint64(i)*0x9E3779B9
		specs = append(specs, workload.TenantSpec{
			Gen:      workload.NewStream(prof, s.ctrl.LogicalPages(), seed),
			Requests: requests,
			Queue: host.QueueConfig{
				Name:     name,
				Depth:    depth,
				Weight:   tc.Weight,
				Priority: tc.Priority,
				RateIOPS: tc.RateIOPS,
			},
		})
	}
	mr, err := workload.RunTenants(s.ctrl, specs, workload.MultiRunConfig{
		Arbiter:       arbiter,
		DispatchWidth: dispatchWidth,
	})
	if err != nil {
		return MultiTenantStats{}, err
	}
	out := MultiTenantStats{
		Elapsed:   time.Duration(mr.ElapsedNs),
		TraceHash: mr.TraceHash,
		Grants:    mr.Grants,
	}
	for _, tr := range mr.Tenants {
		out.Tenants = append(out.Tenants, TenantRunStats{
			Name:        tr.Tenant,
			Requests:    tr.Completed,
			Elapsed:     time.Duration(tr.ElapsedNs),
			IOPS:        tr.IOPS(),
			ReadP50:     time.Duration(tr.ReadLat.Percentile(50)),
			ReadP99:     time.Duration(tr.ReadLat.Percentile(99)),
			ReadP999:    time.Duration(tr.ReadLat.Percentile(99.9)),
			WriteP50:    time.Duration(tr.WriteLat.Percentile(50)),
			WriteP99:    time.Duration(tr.WriteLat.Percentile(99)),
			WriteP999:   time.Duration(tr.WriteLat.Percentile(99.9)),
			QueueFulls:  tr.QueueFulls,
			Throttles:   tr.Throttles,
			Rejects:     tr.RejectedPages,
			Grants:      tr.Grants,
			MaxHeadWait: time.Duration(tr.MaxHeadWaitNs),
		})
	}
	aggR, aggW := mr.Aggregate()
	out.AggReadP99 = time.Duration(aggR.Percentile(99))
	out.AggWriteP99 = time.Duration(aggW.Percentile(99))
	return out, nil
}

// CubeStats reports the PS-aware decision counters and table sizes
// when the SSD runs a cube flavor (zero value otherwise).
type CubeStats = core.CubeStats

// Cube returns the PS-aware counters (meaningful for cube flavors).
func (s *SSD) Cube() CubeStats { return *s.st.Cube.CubeStats() }

// TelemetryConfig configures the observability layer (DESIGN.md §11).
// The zero value enables metrics, stage attribution, and the sampler
// hook but not span/event tracing.
type TelemetryConfig struct {
	// Trace collects per-IO spans and device operation events for Chrome
	// trace_event export (WriteChromeTrace → Perfetto): the 4096 most
	// recent spans, and a uniform 4096-span reservoir over the older ones.
	Trace bool
	// SpanSample traces one in every SpanSample host commands (and the
	// matching fraction of device op events); 0 or 1 traces everything.
	// The sample is systematic with a seed-derived phase, so fixed-seed
	// replays trace the exact same commands, and the simulation itself
	// is untouched (same IOPS, same TraceHash) — see DESIGN.md §16.
	SpanSample int
}

// EnableTelemetry turns on the observability layer: the central metrics
// registry, per-IO stage-latency attribution, and (optionally) span
// tracing. Telemetry is passive and keyed to simulated time — enabling
// it does not change what a run computes (same TraceHash, same stats).
// Call before driving I/O; enabling mid-run only misses early IOs.
func (s *SSD) EnableTelemetry(cfg TelemetryConfig) {
	hub := telemetry.NewHub(s.eng, s.dev.Config().Seed)
	if cfg.Trace {
		hub.EnableTracer(telemetry.TracerConfig{})
	}
	hub.SetSpanSample(cfg.SpanSample)
	s.st.SetTelemetry(hub)
	s.hub = hub
}

// TelemetryEnabled reports whether EnableTelemetry has been called.
func (s *SSD) TelemetryEnabled() bool { return s.hub != nil }

// Telemetry returns the underlying hub (nil when telemetry is off) for
// direct registry/stage access.
func (s *SSD) Telemetry() *telemetry.Hub { return s.hub }

// ErrTelemetryOff reports a telemetry API called before EnableTelemetry.
var ErrTelemetryOff = errors.New("cubeftl: telemetry not enabled")

// WriteChromeTrace exports the collected spans and device operation
// events as Chrome trace_event JSON (chrome://tracing, Perfetto).
// Requires EnableTelemetry with Trace: true.
func (s *SSD) WriteChromeTrace(w io.Writer) error {
	if s.hub == nil || s.hub.Tracer() == nil {
		return fmt.Errorf("%w: need TelemetryConfig.Trace", ErrTelemetryOff)
	}
	dies := s.dev.Channels() * s.dev.Config().DiesPerChannel
	return telemetry.WriteChromeTrace(w, s.hub.Tracer(), s.hub.QueueNames(), dies)
}

// StartStats begins emitting one JSONL telemetry snapshot to w per
// interval of simulated time (tenant IOPS/p99s, per-die utilization,
// registry metrics). Close the returned sampler via CloseStats after
// the run to flush the final snapshot.
func (s *SSD) StartStats(w io.Writer, interval time.Duration) error {
	if s.hub == nil {
		return ErrTelemetryOff
	}
	if interval <= 0 {
		interval = time.Millisecond
	}
	s.stats = telemetry.NewJSONL(w)
	s.sampler = s.hub.StartSampler(int64(interval), s.stats.Write)
	return nil
}

// CloseStats writes the final snapshot and flushes the stats sink.
func (s *SSD) CloseStats() error {
	if s.sampler == nil {
		return ErrTelemetryOff
	}
	err := s.sampler.Close()
	if ferr := s.stats.Flush(); err == nil {
		err = ferr
	}
	s.sampler, s.stats = nil, nil
	return err
}

// BreakdownTable renders the per-scope stage-latency attribution: for
// each tenant/op (and each die's reads), where the p50/p99/mean latency
// was spent — queue wait, plane wait, NAND time, retries, bus. Empty
// string when telemetry is off or no spans completed.
func (s *SSD) BreakdownTable() string {
	if s.hub == nil {
		return ""
	}
	return s.hub.Stages().FormatBreakdown()
}

// KillDie installs certain-failure fault injection on one die's
// programs and erases, driving it to degraded read-only mode as soon as
// its free-block margin runs out — the chaos scenario behind `make
// trace-demo`. Reads keep working.
func (s *SSD) KillDie(die int) error {
	dies := s.dev.Channels() * s.dev.Config().DiesPerChannel
	if die < 0 || die >= dies {
		return fmt.Errorf("cubeftl: die %d out of range (have %d)", die, dies)
	}
	s.dev.SetChipFaults(die, nand.FaultConfig{ProgramFailRate: 1, EraseFailRate: 1})
	return nil
}
