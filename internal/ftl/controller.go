package ftl

import (
	"fmt"

	"cubeftl/internal/lifetime"
	"cubeftl/internal/metrics"
	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
)

// ControllerConfig tunes the datapath around the policy.
type ControllerConfig struct {
	// WriteBufferPages is the DRAM write buffer capacity in pages.
	WriteBufferPages int
	// MaxInflightProgramsPerChip bounds concurrently issued programs
	// per chip so allocation decisions stay close to execution.
	MaxInflightProgramsPerChip int
	// VerifyData enables the end-to-end integrity oracle: synthesized
	// tagged payloads flow through flush, GC relocation, and read-back
	// verification. Requires chips built with nand.Config.StoreData.
	VerifyData bool
	// DurableAcks defers host write acknowledgments until the write's
	// page is programmed under its OOB record (requires an attached
	// RecoveryHook, whose mount rolls such pages forward). With it, an
	// acked write is guaranteed to survive a power cut; without it, acks
	// fire on buffer admission (the classic volatile write-cache
	// contract) and recently acked writes can be lost. It also decides
	// whether programs carry spare-area records at all: without it no
	// mount will read them, so none are encoded or stored.
	DurableAcks bool
	// RetryMode is the NAND read-retry scheduling model applied to every
	// page read the controller issues — host reads and GC relocation
	// reads alike (see nand.RetryMode). The zero value is the classic
	// serialized sense+decode flow.
	RetryMode nand.RetryMode
	// Refresh enables the retention scrubber: a background patrol that
	// rewrites blocks whose retention age or predicted E<->P1 error rate
	// says they are approaching the ECC cliff. Off by default (no
	// background relocations, bit-identical to the historical datapath).
	Refresh bool
	// RefreshPatrolReads is how many host reads on a die fund one patrol
	// step (the scrubber's rate limit, so it yields to tenant traffic).
	// <= 0 takes the default.
	RefreshPatrolReads int
	// WearLevel enables static wear leveling: when a die's erase-count
	// spread crosses lifetime.WearSpreadThreshold, the coldest (least
	// worn) block's data is moved so the block rejoins the write
	// rotation. At most one leveling move per completed GC cycle per
	// die. It also makes the free-block allocator pick the least-worn
	// erased block instead of the most recently freed one. Off by
	// default.
	WearLevel bool
}

// DefaultRefreshPatrolReads is the host-read budget that funds one
// scrub patrol step when ControllerConfig.RefreshPatrolReads is unset.
const DefaultRefreshPatrolReads = 256

const (
	// OverProvision is the fraction of physical pages withheld from the
	// logical capacity (spare area for garbage collection).
	OverProvision = 0.125
	// BufferReadNs is the latency of serving a read from the buffer, and
	// of a write's DMA into it.
	BufferReadNs = 3 * sim.Microsecond
	// FlushTimeoutNs bounds how long a partial word-line group is held
	// for more pages: trickle writes are not stranded in the buffer. It
	// is what a volatile-ack write's program waits out (its host was
	// acked on admission and is not waiting), and the backstop of a
	// durable-ack group held behind a program in flight; a durable-ack
	// group on an idle array, or during a host's drain, does not wait
	// for it (maybeFlush).
	FlushTimeoutNs = 500 * sim.Microsecond
	// gcFreeBlocksLow is the free-pool size at which a die opens
	// garbage collection (checkGC).
	gcFreeBlocksLow = 4
)

// DefaultControllerConfig returns the evaluation defaults.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		WriteBufferPages:           192,
		MaxInflightProgramsPerChip: 1,
	}
}

// Stats aggregates controller-level measurements for one run. It is
// the ledger the datapath counts into and the one declaration of these
// numbers (metrics.Walk): a tagged field reaches the telemetry registry,
// the -stats-out series and /metrics by being here. They register as
// gauges because ResetStats zeroes them.
type Stats struct {
	HostReads  int64 `metric:"-"`
	HostWrites int64 `metric:"-"`

	ReadLat  *metrics.Hist // host read completion latency (ns)
	WriteLat *metrics.Hist // host write completion latency (ns)

	BufferHits    int64 `metric:"ftl/buffer_hits gauge host reads served from the write buffer"`
	UnmappedReads int64 `metric:"-"`
	ReadRetries   int64 `metric:"nand/read_retries gauge read-retry steps taken by page reads"`
	Uncorrectable int64 `metric:"-"`

	Programs    int64 `metric:"-"`
	ProgramNs   int64 `metric:"-"` // summed NAND program latency (for mean tPROG)
	GCCount     int64 `metric:"ftl/gc/runs gauge garbage-collection cycles completed"`
	GCPageMoves int64 `metric:"ftl/gc/page_moves gauge live pages moved by relocation cycles, every cause"`
	Reprograms  int64 `metric:"ftl/reprograms gauge word lines rewritten after a safety-check reject"`
	// Padded counts the pages of padding in partial flush groups;
	// EarlyFlushes the partial groups that left ahead of the flush timer
	// because every host was blocked and no page could join them — an
	// idle array, or a host's drain promise (maybeFlush).
	Padded       int64 `metric:"ftl/padded_pages gauge pages of padding programmed with partial flush groups"`
	EarlyFlushes int64 `metric:"ftl/early_flushes gauge partial flush groups programmed ahead of the flush timer, hosts blocked on an idle array"`
	Trims        int64 `metric:"-"` // host discard commands

	// Per-cause write-amplification ledger: physical pages programmed,
	// attributed to what forced the program. HostPages includes the
	// padding of partial flush groups (the word line is written whole);
	// GCPages covers garbage collection, read-disturb reclaim, and
	// retirement evacuation alike. Views read it in bytes: Controller.WAF.
	HostPages    int64 `metric:"-"`
	GCPages      int64 `metric:"-"`
	RefreshPages int64 `metric:"-"`
	WLPages      int64 `metric:"-"`
	// Refreshes counts retention-scrub relocation cycles; WearLevels
	// counts static wear-leveling relocation cycles.
	Refreshes  int64 `metric:"ftl/refreshes gauge retention-refresh relocation cycles"`
	WearLevels int64 `metric:"ftl/wear_levels gauge static wear-leveling relocation cycles"`
	// DataMismatches counts flash reads whose payload did not match the
	// translation state (VerifyData mode) — always zero for a correct FTL.
	DataMismatches int64 `metric:"-"`
	// Reclaims counts read-disturb reclaim relocations; Evacuations the
	// relocation cycles that emptied a retired block.
	Reclaims    int64 `metric:"-"`
	Evacuations int64 `metric:"-"`

	// Fault-handling counters (all zero on a fault-free device).

	// ProgramFailures counts program-status failures reported by the
	// chips; each one retires the destination block and re-issues the
	// affected data.
	ProgramFailures int64 `metric:"faults/program_fail gauge program-status failures reported by the chips"`
	// EraseFailures counts erase failures; each one grows a bad block.
	EraseFailures int64 `metric:"faults/erase_fail gauge erase failures, each growing a bad block"`
	// ReadFaults counts transient read faults; each is re-issued before
	// it can surface as a host-visible error.
	ReadFaults int64 `metric:"faults/read_faults gauge transient read faults re-issued"`
	// RetiredBlocks counts grown-bad blocks retired by the controller
	// (program/erase failures; factory marks are counted separately).
	RetiredBlocks int64 `metric:"faults/retired_blocks gauge grown-bad blocks retired"`
	// FactoryBadBlocks counts blocks excluded by the boot-time factory
	// bad-block scan.
	FactoryBadBlocks int64 `metric:"-"`
	// FaultRecoveries counts successful recovery actions: requeued host
	// groups, retried GC batches, retirements absorbed without data
	// loss, and transient reads recovered by re-issue.
	FaultRecoveries int64 `metric:"faults/recoveries gauge faults absorbed without data loss"`
	// WriteRejects counts host writes refused in degraded mode.
	WriteRejects int64 `metric:"ftl/write_rejects gauge host writes refused in degraded mode"`
	// DegradedDies counts dies that individually dropped to read-only
	// (their free pools exhausted); the device itself keeps serving
	// writes on the surviving dies until every die has degraded.
	DegradedDies int64 `metric:"ftl/degraded_dies gauge dies that dropped to read-only"`
	// FencedPrograms counts programs that were already queued on a
	// die's resources when the die degraded and were refused at grant
	// time (their data returns to the buffer for surviving dies).
	FencedPrograms int64 `metric:"ftl/fenced_programs gauge queued programs refused when their die degraded"`
	// Requeues, by cause: a host flush group sent back to the write
	// buffer because its die was fenced, its program failed, or its die
	// could place no word line. A word line rewritten after a reprogram
	// verdict is the third requeue cause; Reprograms counts it.
	RequeueFenced      int64 `metric:"ftl/requeue/fenced_total counter host flush groups returned to the buffer when their die was fenced"`
	RequeueProgramFail int64 `metric:"ftl/requeue/program_fail_total counter host flush groups returned to the buffer after a program failure"`
	RequeueAllocFail   int64 `metric:"ftl/requeue/alloc_fail_total counter host flush groups returned to the buffer when their die could place no word line"`
}

// MeanTPROGNs returns the average NAND program latency of the run.
func (s *Stats) MeanTPROGNs() float64 {
	if s.Programs == 0 {
		return 0
	}
	return float64(s.ProgramNs) / float64(s.Programs)
}

// Controller is the host-facing FTL datapath: write buffering, page
// mapping, flushing, garbage collection, and read handling, with all
// flavor-specific choices delegated to a Policy. It degrades gracefully
// under NAND faults: failed blocks are retired, their data re-issued,
// and total free-block exhaustion puts the device in a read-only
// degraded mode instead of crashing.
type Controller struct {
	eng *sim.Engine
	dev *ssd.Device
	pol Policy
	cfg ControllerConfig
	geo ssd.Geometry

	mapper *Mapper
	buf    *WriteBuffer

	dies     []die
	roles    []blockRole // per block, chip-major
	degraded bool        // device-wide read-only: every die has degraded

	pendingWrites pool.Ring[*hostWrite] // host writes waiting for buffer space
	flushChip     int                   // round-robin cursor
	timerArmed    bool                  // the FlushTimeoutNs bound on a held partial group
	earlyArmed    bool                  // its flush one DMA time from now (maybeFlush)
	onFlushTimer  func()                // flushTimerFired, bound once
	onEarlyFlush  func()                // earlyFlushFired, bound once

	// Free lists of datapath op records (ops.go, relocator.go).
	hostReads  pool.FreeList[hostRead]
	hostWrites pool.FreeList[hostWrite]
	flushOps   pool.FreeList[flushOp]
	relocOps   pool.FreeList[relocOp]
	// Released write-point cursors (datapath.go openCursor).
	cursors pool.FreeList[BlockCursor]

	// Crash-consistency state (see internal/recovery). writeStamp is the
	// last global write stamp issued (monotonic across host writes, trims
	// and power cycles); stamps[lpn] is the stamp of the mapped copy or,
	// for an unmapped page, of the trim that unmapped it — a tombstone the
	// checkpoint keeps, so no older copy left on the media comes back —
	// and stamped counts the pages with one. blockSeq is the last block
	// sequence number assigned to an opened block. rec, when non-nil, is
	// told what the journal must make durable.
	rec        RecoveryHook
	writeStamp uint64
	blockSeq   uint64
	stamps     []uint64
	stamped    int

	// DurableAcks bookkeeping: host writes whose acks are held until
	// their page is programmed, chained through hostWrite.next in
	// admission order — ascending stamp. drainPromise is the host's word
	// that nothing new is coming (SetDrainPromise).
	heldAcks, heldAcksTail *hostWrite
	pendingAckCount        int
	drainPromise           bool

	expectedStamp []uint64 // VerifyData mode (integrity.go); nil otherwise
	stats         Stats

	// Telemetry (nil when disabled — every hook guards).
	hub *telemetry.Hub
}

// die is the controller's state for one die.
type die struct {
	free     []int          // erased blocks, in allocation order
	actives  []*BlockCursor // open write points
	inflight int            // issued, uncompleted host programs
	// closing holds former write points — filled, or abandoned by a
	// degrading die — with a program still in flight. The policy hears
	// of their retirement when the last one completes (it still observes
	// those programs), and host pages are acked when theirs completes,
	// committed by their OOB records alone; a mount rolls pages forward
	// only from the blocks the checkpoint lists as open, so until then a
	// checkpoint lists these too (AppendActives).
	closing  []*BlockCursor
	degraded bool // read-only: fenced at the device, no write points

	// One relocation cycle runs per die at a time. Work that found the
	// die busy queues: retired blocks still to evacuate, and blocks a
	// ScrubSweep found due (re-validated when their turn comes).
	cycle          relocCycle
	pendingRetire  []int
	pendingRefresh []int

	patrolCredit int   // host reads counted toward the next patrol step
	patrolCursor int   // the block that step inspects
	lastWLGC     int64 // Stats.GCCount at the last wear-leveling move, -1 before it

	progHist *metrics.Hist // successful-program latency; nil without telemetry
}

// blockRole says what a block is doing: every block has exactly one.
// The free list orders the free ones and the write points hold the open
// ones' cursors; CheckConsistency holds all three to agree.
type blockRole uint8

const (
	roleData    blockRole = iota // closed: holds data or garbage until collected
	roleFree                     // erased, in its die's free list
	roleOpen                     // a write point
	roleRetired                  // factory-marked or grown bad, never written again
)

// chipRoles returns the roles of one chip's blocks, indexed by block.
func (c *Controller) chipRoles(chip int) []blockRole {
	return c.roles[chip*c.geo.BlocksPerChip : (chip+1)*c.geo.BlocksPerChip]
}

func (c *Controller) role(chip, block int) blockRole       { return c.chipRoles(chip)[block] }
func (c *Controller) setRole(chip, block int, r blockRole) { c.chipRoles(chip)[block] = r }

// newController is the one place a Controller and its per-die state are
// allocated: fresh boot and mount both start here, over L2P and stamp
// tables they pass in and it keeps, and differ only in what those hold
// and where the pools and write points come from.
func newController(dev *ssd.Device, pol Policy, cfg ControllerConfig, l2p []ssd.PPN, stamps []uint64) *Controller {
	if cfg.WriteBufferPages <= 0 {
		cfg.WriteBufferPages = DefaultControllerConfig().WriteBufferPages
	}
	if cfg.RefreshPatrolReads <= 0 {
		cfg.RefreshPatrolReads = DefaultRefreshPatrolReads
	}
	geo := dev.Geometry()
	buf, _ := NewWriteBuffer(cfg.WriteBufferPages) // cannot fail: the capacity is positive
	c := &Controller{
		eng:    dev.Engine(),
		dev:    dev,
		pol:    pol,
		cfg:    cfg,
		geo:    geo,
		mapper: newMapper(geo, l2p),
		buf:    buf,
		stamps: stamps,
		stats:  Stats{ReadLat: metrics.NewHist(0), WriteLat: metrics.NewHist(0)},
		dies:   make([]die, geo.Chips),
		roles:  make([]blockRole, geo.Chips*geo.BlocksPerChip),
	}
	c.onFlushTimer, c.onEarlyFlush = c.flushTimerFired, c.earlyFlushFired
	if cfg.VerifyData {
		c.expectedStamp = make([]uint64, len(l2p))
	}
	for chip := range c.dies {
		d := &c.dies[chip]
		d.lastWLGC = -1
		d.free = make([]int, 0, geo.BlocksPerChip)
		d.cycle.bind(c, chip)
		// Boot-time factory bad-block scan: factory-marked blocks never
		// enter a free pool.
		for _, b := range dev.Die(chip).NAND.FactoryBadBlocks() {
			c.setRole(chip, b, roleRetired)
			c.stats.FactoryBadBlocks++
		}
	}
	return c
}

// NewController wires a controller over the device with the policy.
func NewController(dev *ssd.Device, pol Policy, cfg ControllerConfig) *Controller {
	empty := NewMountState(dev.Geometry())
	c := newController(dev, pol, cfg, empty.L2P, empty.Stamps)
	for chip := range c.dies {
		for b := c.geo.BlocksPerChip - 1; b >= 0; b-- {
			if c.role(chip, b) != roleRetired {
				c.pushFree(chip, b)
			}
		}
		c.armWritePoints(chip)
	}
	return c
}

// Policy returns the controller's policy.
func (c *Controller) Policy() Policy { return c.pol }

// Engine returns the simulation engine driving the controller.
func (c *Controller) Engine() *sim.Engine { return c.eng }

// Device returns the underlying SSD back end.
func (c *Controller) Device() *ssd.Device { return c.dev }

// ResetStats discards accumulated measurements (e.g. after a prefill or
// warmup phase) without touching translation or buffer state. Bad-block
// and degraded-die accounting survives the reset — those blocks and
// dies are still gone.
func (c *Controller) ResetStats() {
	// The histograms are emptied in place: Stats() hands out a pointer to
	// the live struct and the telemetry registry resolves them on every
	// snapshot, so nobody is left holding a histogram of the old window.
	old := c.stats
	old.ReadLat.Reset()
	old.WriteLat.Reset()
	c.stats = Stats{
		ReadLat:          old.ReadLat,
		WriteLat:         old.WriteLat,
		RetiredBlocks:    old.RetiredBlocks,
		FactoryBadBlocks: old.FactoryBadBlocks,
		DegradedDies:     old.DegradedDies,
	}
	// Per-die program histograms are measurement state too.
	for i := range c.dies {
		if h := c.dies[i].progHist; h != nil {
			h.Reset()
		}
	}
}

// SetTelemetry attaches a telemetry hub to the datapath: the device
// emits NAND op events, the controller emits flush/GC/requeue events
// and per-die program histograms, and the sampler reads per-die state
// through the controller. Call once, before the measured run; nil
// detaches. All hooks are passive — the event sequence of a run is
// identical with telemetry on or off.
func (c *Controller) SetTelemetry(hub *telemetry.Hub) {
	c.hub = hub
	c.dev.SetTelemetry(hub)
	if hub == nil {
		for i := range c.dies {
			c.dies[i].progHist = nil
		}
		return
	}
	hub.SetDeviceSource(c)
	reg := hub.Registry()
	for i := range c.dies {
		d := &c.dies[i]
		d.progHist = metrics.NewHist(0)
		reg.RegisterHist(fmt.Sprintf("ftl/die/%d/prog_ns", i), func() *metrics.Hist { return d.progHist })
		// Per-die health gauges: degraded (FTL read-only verdict) and
		// fenced (device-level program refusal). They normally flip
		// together, but fencing lands first — the gap is observable.
		reg.RegisterGauge(fmt.Sprintf("ftl/die/%d/degraded", i), func() float64 { return telemetry.BoolValue(d.degraded) })
		reg.RegisterGauge(fmt.Sprintf("ftl/die/%d/fenced", i), func() float64 { return telemetry.BoolValue(c.dev.DieFenced(i)) })
	}
	// The ledgers: every declared number of Stats by address (ResetStats
	// zeroes the struct in place), the byte-denominated WAF view, rebuilt
	// once per snapshot, and the one ratio computed on read.
	reg.MustRegisterStruct("", &c.stats, nil)
	waf := new(lifetime.WAF)
	reg.MustRegisterStruct("ftl/", waf, func() { *waf = c.WAF() })
	reg.RegisterGauge("ftl/write_amp", func() float64 {
		if c.stats.HostWrites == 0 {
			return 0
		}
		return float64(c.stats.Programs*int64(vth.PagesPerWL)) / float64(c.stats.HostWrites)
	})
	// The registry takes a getter; ResetStats empties these histograms
	// in place, so the getters always return the same two.
	reg.RegisterHist("ftl/read_ns", func() *metrics.Hist { return c.stats.ReadLat })
	reg.RegisterHist("ftl/write_ns", func() *metrics.Hist { return c.stats.WriteLat })
}

// TelemetryHub returns the attached hub, or nil. The host front end
// discovers telemetry through the controller it is built over.
func (c *Controller) TelemetryHub() *telemetry.Hub { return c.hub }

// DieSamples implements telemetry.DeviceSource: per-die utilization,
// queue depth and channel utilization for the time-series sampler.
func (c *Controller) DieSamples() []telemetry.DieSample {
	out := make([]telemetry.DieSample, c.geo.Chips)
	for i := range out {
		out[i] = telemetry.DieSample{
			Die:         i,
			Utilization: c.dev.DieUtilization(i),
			QueueDepth:  c.dev.Die(i).QueueDepth(),
			BusUtil:     c.dev.ChannelUtilization(c.dev.ChannelOf(i)),
		}
	}
	return out
}

// instant records an instant on the die's FTL track of the trace.
func (c *Controller) instant(die int, name string) {
	if c.hub != nil {
		c.hub.Instant(telemetry.PidFTL, die, name)
	}
}

// requeue counts one requeue in its ledger row and records it in the
// trace, an instant on the die's FTL track.
func (c *Controller) requeue(die int, name string, count *int64) {
	*count++
	c.instant(die, name)
}

// Mapper exposes translation state (tests and experiments).
func (c *Controller) Mapper() *Mapper { return c.mapper }

// Stats returns the live statistics (updated in place during the run).
func (c *Controller) Stats() *Stats { return &c.stats }

// LogicalPages returns the exported capacity in pages.
func (c *Controller) LogicalPages() int { return c.mapper.LogicalPages() }

// Degraded reports whether the device has dropped to read-only mode
// (every die degraded).
func (c *Controller) Degraded() bool { return c.degraded }

// DieDegraded reports whether one die has dropped to read-only mode.
// The device keeps serving writes while any die survives.
func (c *Controller) DieDegraded(die int) bool { return c.dies[die].degraded }

// IsRetired reports whether a block has been retired (factory mark or
// grown bad).
func (c *Controller) IsRetired(chip, block int) bool { return c.role(chip, block) == roleRetired }

// WearSpread returns the min and max block P/E counts across the device
// — the wear-leveling figure of merit.
func (c *Controller) WearSpread() (lo, hi int) {
	lo = int(^uint(0) >> 1)
	for chip := 0; chip < c.geo.Chips; chip++ {
		n := c.dev.Die(chip).NAND
		for b := 0; b < c.geo.BlocksPerChip; b++ {
			lo, hi = min(lo, n.PECycles(b)), max(hi, n.PECycles(b))
		}
	}
	return lo, hi
}

// WAF returns the per-cause write-amplification ledger, in bytes.
func (c *Controller) WAF() lifetime.WAF {
	st := &c.stats
	w := lifetime.NewWAF(st.HostPages, st.GCPages, st.RefreshPages, st.WLPages,
		int64(c.dev.Die(0).NAND.Config().PageBytes))
	w.Refreshes, w.WearLevels = st.Refreshes, st.WearLevels
	return w
}

// Drained reports that no host work is pending anywhere: used by runs
// to quiesce before measuring. A degraded device is considered drained
// once nothing is in flight — its buffered pages can never flush.
func (c *Controller) Drained() bool {
	if c.pendingWrites.Len() > 0 || (!c.degraded && (c.buf.Occupied() > 0 || c.pendingAckCount > 0)) {
		return false
	}
	return !c.hostProgramInFlight()
}

// hostProgramInFlight reports whether any die has an issued, uncompleted
// host program.
func (c *Controller) hostProgramInFlight() bool {
	for i := range c.dies {
		if c.dies[i].inflight > 0 {
			return true
		}
	}
	return false
}

// SetRecovery attaches (or detaches, with nil) the crash-consistency
// hook. Attach before driving I/O; the recovery manager immediately
// checkpoints the controller's full state, so deltas that predate the
// hook are covered by the checkpoint rather than the journal. A hook
// needs a controller configured with DurableAcks: without it the media
// carry no spare-area records for a mount to roll forward from.
func (c *Controller) SetRecovery(rec RecoveryHook) {
	if rec != nil && !c.cfg.DurableAcks {
		panic("ftl: SetRecovery on a controller without ControllerConfig.DurableAcks: its programs carry no spare-area records")
	}
	c.rec = rec
}

// PendingAckCount returns how many host write acks are waiting for
// their page's program to complete (DurableAcks mode).
func (c *Controller) PendingAckCount() int { return c.pendingAckCount }
