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
	// OverProvision is the fraction of physical pages withheld from the
	// logical capacity (spare area for garbage collection).
	OverProvision float64
	// GCFreeBlocksLow triggers garbage collection on a chip when its
	// free-block pool drops to this size.
	GCFreeBlocksLow int
	// BufferReadNs is the latency of serving a read from the buffer.
	BufferReadNs int64
	// FlushTimeoutNs flushes a partial word-line group after this idle
	// time so trickle writes are not stranded in the buffer.
	FlushTimeoutNs int64
	// MaxInflightProgramsPerChip bounds concurrently issued programs
	// per chip so allocation decisions stay close to execution.
	MaxInflightProgramsPerChip int
	// WearAware makes the free-block allocator pick the least-worn
	// erased block instead of the most recently freed one, spreading
	// P/E cycles across the chip (static wear leveling).
	WearAware bool
	// VerifyData enables the end-to-end integrity oracle: synthesized
	// tagged payloads flow through flush, GC relocation, and read-back
	// verification. Requires chips built with nand.Config.StoreData.
	VerifyData bool
	// DisableReadReclaim turns off read-disturb reclaim (relocating a
	// block whose read count exceeds the chip's disturb budget).
	DisableReadReclaim bool
	// DurableAcks defers host write acknowledgments until the write's
	// journal record is durable (requires an attached RecoveryHook).
	// With it, an acked write is guaranteed to survive a power cut;
	// without it, acks fire on buffer admission (the classic volatile
	// write-cache contract) and recently acked writes can be lost.
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
	// RefreshPolicy sets the scrub thresholds; the zero value takes
	// lifetime.DefaultRefreshPolicy.
	RefreshPolicy lifetime.RefreshPolicy
	// RefreshPatrolReads is how many host reads on a die fund one patrol
	// step (the scrubber's rate limit, so it yields to tenant traffic).
	// <= 0 takes the default.
	RefreshPatrolReads int
	// WearLevel enables static wear leveling: when a die's erase-count
	// spread crosses the wear policy's threshold, the coldest (least
	// worn) block's data is moved so the block rejoins the write
	// rotation. At most one leveling move per completed GC cycle per
	// die. Off by default.
	WearLevel bool
	// WearPolicy sets the leveling threshold; the zero value takes
	// lifetime.DefaultWearPolicy.
	WearPolicy lifetime.WearPolicy
}

// DefaultRefreshPatrolReads is the host-read budget that funds one
// scrub patrol step when ControllerConfig.RefreshPatrolReads is unset.
const DefaultRefreshPatrolReads = 256

// DefaultControllerConfig returns the evaluation defaults.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		WriteBufferPages:           192,
		OverProvision:              0.125,
		GCFreeBlocksLow:            4,
		BufferReadNs:               3 * sim.Microsecond,
		FlushTimeoutNs:             500 * sim.Microsecond,
		MaxInflightProgramsPerChip: 1,
	}
}

// Stats aggregates controller-level measurements for one run.
type Stats struct {
	HostReads  int64
	HostWrites int64

	ReadLat  *metrics.Hist // host read completion latency (ns)
	WriteLat *metrics.Hist // host write completion latency (ns)

	BufferHits    int64
	UnmappedReads int64
	ReadRetries   int64
	Uncorrectable int64

	Programs    int64
	ProgramNs   int64 // summed NAND program latency (for mean tPROG)
	GCCount     int64
	GCPageMoves int64
	Reprograms  int64
	Padded      int64 // pages of padding in partial flush groups
	Trims       int64 // host discard commands

	// Per-cause write-amplification ledger: physical pages programmed,
	// attributed to what forced the program. HostPages includes the
	// padding of partial flush groups (the word line is written whole);
	// GCPages covers garbage collection, read-disturb reclaim, and
	// retirement evacuation alike.
	HostPages    int64
	GCPages      int64
	RefreshPages int64
	WLPages      int64
	// Refreshes counts retention-scrub relocation cycles; WearLevels
	// counts static wear-leveling relocation cycles.
	Refreshes  int64
	WearLevels int64
	// DataMismatches counts flash reads whose payload did not match the
	// translation state (VerifyData mode) — always zero for a correct FTL.
	DataMismatches int64
	// Reclaims counts read-disturb reclaim relocations.
	Reclaims int64

	// Fault-handling counters (all zero on a fault-free device).

	// ProgramFailures counts program-status failures reported by the
	// chips; each one retires the destination block and re-issues the
	// affected data.
	ProgramFailures int64
	// EraseFailures counts erase failures; each one grows a bad block.
	EraseFailures int64
	// ReadFaults counts transient read faults; each is re-issued before
	// it can surface as a host-visible error.
	ReadFaults int64
	// RetiredBlocks counts grown-bad blocks retired by the controller
	// (program/erase failures; factory marks are counted separately).
	RetiredBlocks int64
	// FactoryBadBlocks counts blocks excluded by the boot-time factory
	// bad-block scan.
	FactoryBadBlocks int64
	// FaultRecoveries counts successful recovery actions: requeued host
	// groups, retried GC batches, retirements absorbed without data
	// loss, and transient reads recovered by re-issue.
	FaultRecoveries int64
	// WriteRejects counts host writes refused in degraded mode.
	WriteRejects int64
	// DegradedDies counts dies that individually dropped to read-only
	// (their free pools exhausted); the device itself keeps serving
	// writes on the surviving dies until every die has degraded.
	DegradedDies int64
	// FencedPrograms counts programs that were already queued on a
	// die's resources when the die degraded and were refused at grant
	// time (their data returns to the buffer for surviving dies).
	FencedPrograms int64
}

// MeanTPROGNs returns the average NAND program latency of the run.
func (s *Stats) MeanTPROGNs() float64 {
	if s.Programs == 0 {
		return 0
	}
	return float64(s.ProgramNs) / float64(s.Programs)
}

// FaultCounters returns the fault-handling counters as an ordered,
// printable set (reports and the cubesim CLI).
func (s *Stats) FaultCounters() *metrics.CounterSet {
	cs := metrics.NewCounterSet()
	cs.Add("ProgramFailures", s.ProgramFailures)
	cs.Add("EraseFailures", s.EraseFailures)
	cs.Add("ReadFaults", s.ReadFaults)
	cs.Add("RetiredBlocks", s.RetiredBlocks)
	cs.Add("FactoryBadBlocks", s.FactoryBadBlocks)
	cs.Add("FaultRecoveries", s.FaultRecoveries)
	cs.Add("WriteRejects", s.WriteRejects)
	cs.Add("DegradedDies", s.DegradedDies)
	cs.Add("FencedPrograms", s.FencedPrograms)
	return cs
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

	freeBlocks [][]int          // per chip: erased block IDs
	actives    [][]*BlockCursor // per chip: open write points
	inflight   []int            // per chip: issued, uncompleted programs
	gcActive   []bool           // per chip: GC or evacuation in progress

	// relocCause[chip] tags the in-flight relocation cycle so its page
	// moves land on the right WAF counter. Valid only while
	// gcActive[chip]; reset to causeGC when the cycle closes.
	relocCause []relocCause
	// Retention-scrub state: patrolCredit accumulates host reads toward
	// the next patrol step, patrolCursor rotates over the die's blocks,
	// pendingRefresh queues blocks a ScrubSweep found due (drained one
	// at a time through the relocation machinery).
	patrolCredit   []int
	patrolCursor   []int
	pendingRefresh [][]int
	// lastWLGC[chip] is the GCCount at the chip's last wear-leveling
	// move — the at-most-one-move-per-GC-cycle rate limit.
	lastWLGC []int64
	// scrubWindows records completed refresh relocation windows (the
	// power-cut sweep aims cuts mid-scrub).
	scrubWindows [][2]sim.Time

	// Bad-block management. retired holds every block the controller
	// will never write again: factory-marked blocks plus grown-bad
	// blocks (program/erase failures). pendingRetire queues retired
	// blocks whose live pages still need evacuation (one relocation
	// cycle runs per chip at a time).
	retired       []map[int]bool
	pendingRetire [][]int
	// dieDegraded marks dies that can no longer accept programs (free
	// pool exhausted, nothing left to collect). A degraded die is
	// fenced at the device so queued grants cannot program it; the
	// device keeps writing to surviving dies.
	dieDegraded []bool
	degraded    bool // device-wide read-only: every die has degraded

	pendingWrites pool.Ring[pendingWrite] // host writes waiting for buffer space
	flushChip     int                     // round-robin cursor
	timerArmed    bool
	onFlushTimer  func() // flushTimerFired, bound on first use

	// Free lists of datapath op records (ops.go).
	hostReads  pool.FreeList[hostRead]
	hostWrites pool.FreeList[hostWrite]
	flushOps   pool.FreeList[flushOp]
	relocOps   pool.FreeList[relocOp]

	// Crash-consistency state (see internal/recovery). writeStamp is the
	// last global write stamp issued (monotonic across host writes and
	// across power cycles); stamps[lpn] is the stamp of the mapped copy.
	// blockSeq is the last block sequence number assigned to an opened
	// block. rec, when non-nil, receives mapping deltas for journaling.
	rec        RecoveryHook
	writeStamp uint64
	blockSeq   uint64
	stamps     []uint64

	// DurableAcks bookkeeping: host writes whose acks are held until the
	// journal record of their mapping is durable, chained through
	// hostWrite.next in admission order — ascending stamp.
	heldAcks, heldAcksTail *hostWrite
	pendingAckCount        int

	// gcWindows records every completed [start, end) interval during
	// which a chip ran GC/evacuation — the power-cut sweep uses it to
	// aim cuts mid-collection.
	gcWindows [][2]sim.Time
	gcStart   []sim.Time

	verify *verifyState // non-nil in VerifyData mode
	stats  Stats

	// Telemetry (nil/empty when disabled — every hook guards).
	hub       *telemetry.Hub
	progHists []*metrics.Hist // per-die successful-program latency
	reqFenced *telemetry.Counter
	reqFail   *telemetry.Counter
	reqReprog *telemetry.Counter
	reqAlloc  *telemetry.Counter
}

// relocCause says what started a relocation cycle, for per-cause write
// amplification accounting. GC, read-disturb reclaim, and retirement
// evacuation share causeGC.
type relocCause int

const (
	causeGC relocCause = iota
	causeRefresh
	causeWL
)

type pendingWrite struct {
	lpn LPN
	w   *hostWrite

	// Telemetry: admission-wait attribution for the write's span.
	pp         *telemetry.PageProbe
	enqueuedNs sim.Time
}

// newController is the one place a Controller and its per-chip state
// are allocated: fresh boot (NewController) and recovery mount
// (NewControllerWithState) both start here and differ only in where the
// pools, write points and mapping come from.
func newController(dev *ssd.Device, pol Policy, cfg ControllerConfig) *Controller {
	if cfg.WriteBufferPages <= 0 {
		cfg.WriteBufferPages = DefaultControllerConfig().WriteBufferPages
	}
	geo := dev.Geometry()
	logical := int(float64(geo.PhysPages()) * (1 - cfg.OverProvision))
	buf, _ := NewWriteBuffer(cfg.WriteBufferPages) // cannot fail: the capacity is positive
	nChips := geo.Chips
	c := &Controller{
		eng:    dev.Engine(),
		dev:    dev,
		pol:    pol,
		cfg:    cfg,
		geo:    geo,
		mapper: NewMapper(geo, logical),
		buf:    buf,
		stamps: make([]uint64, logical),
		stats:  Stats{ReadLat: metrics.NewHist(0), WriteLat: metrics.NewHist(0)},

		freeBlocks:     make([][]int, nChips),
		actives:        make([][]*BlockCursor, nChips),
		inflight:       make([]int, nChips),
		gcActive:       make([]bool, nChips),
		retired:        make([]map[int]bool, nChips),
		pendingRetire:  make([][]int, nChips),
		dieDegraded:    make([]bool, nChips),
		gcStart:        make([]sim.Time, nChips),
		relocCause:     make([]relocCause, nChips),
		patrolCredit:   make([]int, nChips),
		patrolCursor:   make([]int, nChips),
		pendingRefresh: make([][]int, nChips),
		lastWLGC:       make([]int64, nChips),
	}
	if cfg.VerifyData {
		c.verify = newVerifyState(logical)
	}
	for chip := range c.retired {
		c.lastWLGC[chip] = -1
		// Boot-time factory bad-block scan: factory-marked blocks never
		// enter a free pool.
		c.retired[chip] = make(map[int]bool)
		for _, b := range dev.Die(chip).NAND.FactoryBadBlocks() {
			c.retired[chip][b] = true
			c.stats.FactoryBadBlocks++
		}
	}
	return c
}

// armWritePoints tops a chip's open write points up to the policy's
// count from its free pool. A pathologically bad chip runs with fewer.
func (c *Controller) armWritePoints(chip int) {
	want := max(c.pol.ActiveBlocksPerChip(), 1)
	for len(c.actives[chip]) < want {
		cur, ok := c.takeFreeBlock(chip)
		if !ok {
			return
		}
		c.actives[chip] = append(c.actives[chip], cur)
	}
}

// NewController wires a controller over the device with the policy.
func NewController(dev *ssd.Device, pol Policy, cfg ControllerConfig) *Controller {
	c := newController(dev, pol, cfg)
	for chip := range c.freeBlocks {
		c.freeBlocks[chip] = make([]int, 0, c.geo.BlocksPerChip)
		for b := c.geo.BlocksPerChip - 1; b >= 0; b-- {
			if !c.retired[chip][b] {
				c.freeBlocks[chip] = append(c.freeBlocks[chip], b)
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
	for _, h := range c.progHists {
		h.Reset()
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
		c.progHists = nil
		c.reqFenced, c.reqFail, c.reqReprog, c.reqAlloc = nil, nil, nil, nil
		return
	}
	hub.SetDeviceSource(c)
	reg := hub.Registry()
	c.progHists = make([]*metrics.Hist, c.geo.Chips)
	for i := range c.progHists {
		c.progHists[i] = metrics.NewHist(0)
		i := i
		reg.RegisterHist(fmt.Sprintf("ftl/die/%d/prog_ns", i),
			func() *metrics.Hist { return c.progHists[i] })
		// Per-die health gauges: degraded (FTL read-only verdict) and
		// fenced (device-level program refusal). They normally flip
		// together, but fencing lands first — the gap is observable.
		reg.RegisterGauge(fmt.Sprintf("ftl/die/%d/degraded", i), func() float64 {
			if c.dieDegraded[i] {
				return 1
			}
			return 0
		})
		reg.RegisterGauge(fmt.Sprintf("ftl/die/%d/fenced", i), func() float64 {
			if c.dev.DieFenced(i) {
				return 1
			}
			return 0
		})
	}
	// The registry takes a getter; ResetStats empties these histograms
	// in place, so the getters always return the same two.
	reg.RegisterHist("ftl/read_ns", func() *metrics.Hist { return c.stats.ReadLat })
	reg.RegisterHist("ftl/write_ns", func() *metrics.Hist { return c.stats.WriteLat })
	c.reqFenced = reg.MustCounter("ftl/requeue/fenced")
	c.reqFail = reg.MustCounter("ftl/requeue/program_fail")
	c.reqReprog = reg.MustCounter("ftl/requeue/reprogram")
	c.reqAlloc = reg.MustCounter("ftl/requeue/alloc_fail")
}

// TelemetryHub returns the attached hub, or nil. The host front end
// discovers telemetry through the controller it is built over.
func (c *Controller) TelemetryHub() *telemetry.Hub { return c.hub }

// DieSamples implements telemetry.DeviceSource: per-die utilization,
// queue depth, channel utilization, and degraded state for the
// time-series sampler.
func (c *Controller) DieSamples() []telemetry.DieSample {
	out := make([]telemetry.DieSample, c.geo.Chips)
	for i := range out {
		out[i] = telemetry.DieSample{
			Die:         i,
			Utilization: c.dev.DieUtilization(i),
			QueueDepth:  c.dev.Die(i).QueueDepth(),
			BusUtil:     c.dev.ChannelUtilization(c.dev.ChannelOf(i)),
			Degraded:    c.dieDegraded[i],
		}
	}
	return out
}

// requeueInstant records one flush-group requeue in the trace (an
// instant on the die's FTL track) and the matching registry counter.
func (c *Controller) requeueInstant(die int, name string, counter *telemetry.Counter) {
	if c.hub == nil {
		return
	}
	c.hub.Instant(telemetry.PidFTL, die, name)
	if counter != nil {
		counter.Inc(1)
	}
}

// Mapper exposes translation state (tests and experiments).
func (c *Controller) Mapper() *Mapper { return c.mapper }

// Stats returns the live statistics (updated in place during the run).
func (c *Controller) Stats() *Stats { return &c.stats }

// BufferUtilization returns the paper's mu.
func (c *Controller) BufferUtilization() float64 { return c.buf.Utilization() }

// LogicalPages returns the exported capacity in pages.
func (c *Controller) LogicalPages() int { return c.mapper.LogicalPages() }

// Degraded reports whether the device has dropped to read-only mode
// (every die degraded).
func (c *Controller) Degraded() bool { return c.degraded }

// DieDegraded reports whether one die has dropped to read-only mode.
// The device keeps serving writes while any die survives.
func (c *Controller) DieDegraded(die int) bool { return c.dieDegraded[die] }

// DegradedDieCount returns how many dies have degraded to read-only.
func (c *Controller) DegradedDieCount() int { return int(c.stats.DegradedDies) }

// TargetDie returns the die a read of lpn would touch, or -1 when the
// read is die-agnostic (buffered or unmapped) — used by die-aware host
// dispatch to prefer commands whose die is idle.
func (c *Controller) TargetDie(lpn LPN) int {
	if lpn < 0 || int(lpn) >= c.mapper.LogicalPages() || c.buf.Contains(lpn) {
		return -1
	}
	ppn := c.mapper.Lookup(lpn)
	if ppn == ssd.UnmappedPPN {
		return -1
	}
	die, _, _, _, _ := c.geo.DecodePPN(ppn)
	return die
}

// DieBusy reports whether a die has work queued or running on any of
// its planes.
func (c *Controller) DieBusy(die int) bool { return c.dev.Die(die).Busy() }

// IsRetired reports whether a block has been retired (factory mark or
// grown bad).
func (c *Controller) IsRetired(chip, block int) bool { return c.retired[chip][block] }

// takeFreeBlock pops an erased block from the chip's pool, or reports
// ok=false when the pool is exhausted.
func (c *Controller) takeFreeBlock(chip int) (*BlockCursor, bool) {
	pool := c.freeBlocks[chip]
	if len(pool) == 0 {
		return nil, false
	}
	idx := len(pool) - 1
	if c.cfg.WearAware {
		nand := c.dev.Die(chip).NAND
		best := nand.PECycles(pool[idx])
		for i, b := range pool[:idx] {
			if pe := nand.PECycles(b); pe < best {
				best, idx = pe, i
			}
		}
	}
	b := pool[idx]
	c.freeBlocks[chip] = append(pool[:idx], pool[idx+1:]...)
	cur := NewBlockCursor(chip, b, c.geo.Layers, c.geo.WLsPerLayer)
	c.blockSeq++
	cur.Seq = c.blockSeq
	if c.rec != nil {
		c.rec.NoteBlockOpened(chip, b, cur.Seq)
	}
	return cur, true
}

// WearSpread returns the min and max block P/E counts across the device
// — the wear-leveling figure of merit.
func (c *Controller) WearSpread() (min, max int) {
	min = int(^uint(0) >> 1)
	for chip := 0; chip < c.geo.Chips; chip++ {
		n := c.dev.Die(chip).NAND
		for b := 0; b < c.geo.BlocksPerChip; b++ {
			pe := n.PECycles(b)
			if pe < min {
				min = pe
			}
			if pe > max {
				max = pe
			}
		}
	}
	return min, max
}

// Read serves a host page read; done runs at completion in simulated
// time. pp, when non-nil, is a latency-attribution probe (behavior and
// timing are identical either way): buffer hits and unmapped reads
// charge the buffer stage; mapped reads charge plane wait, sense,
// retries, and channel stages at the device.
func (c *Controller) Read(lpn LPN, pp *telemetry.PageProbe, done func()) {
	c.stats.HostReads++
	r := c.getHostRead()
	r.start, r.done = c.eng.Now(), done
	if c.buf.Contains(lpn) {
		c.stats.BufferHits++
		if pp != nil {
			pp.Buffered = true
			pp.BufferNs += c.cfg.BufferReadNs
		}
		c.eng.After(c.cfg.BufferReadNs, r.onFinish)
		return
	}
	ppn := c.mapper.Lookup(lpn)
	if ppn == ssd.UnmappedPPN {
		c.stats.UnmappedReads++
		if pp != nil {
			pp.Buffered = true
			pp.BufferNs += c.cfg.BufferReadNs
		}
		c.eng.After(c.cfg.BufferReadNs, r.onFinish)
		return
	}
	chip, block, layer, wl, page := c.geo.DecodePPN(ppn)
	r.lpn, r.pp, r.attempt = lpn, pp, 0
	r.chip, r.block, r.layer = chip, block, layer
	r.params = nand.ReadParams{StartOffset: c.pol.ReadStartOffset(chip, block, layer), Mode: c.cfg.RetryMode}
	r.addr = nand.Address{Block: block, Layer: layer, WL: wl, Page: page}
	c.dev.Read(chip, r.addr, r.params, pp, r.onFlash)
}

// maybeReclaim starts a read-disturb reclaim of a block whose read
// count exceeded the chip's disturb budget: its data is relocated
// through the normal GC machinery and the erase resets the counter.
func (c *Controller) maybeReclaim(chip, block int) {
	if c.cfg.DisableReadReclaim || c.gcActive[chip] || c.isActive(chip, block) || c.retired[chip][block] {
		return
	}
	if c.dev.Die(chip).NAND.BlockReads(block) < nand.ReadDisturbBudget {
		return
	}
	if len(c.freeBlocks[chip]) <= 1 {
		return // do not race an out-of-space condition
	}
	c.setGCActive(chip, true)
	c.stats.Reclaims++
	c.relocate(chip, block, c.mapper.LivePages(chip, block))
}

// inFreePool reports whether a block sits in the chip's erased pool.
func (c *Controller) inFreePool(chip, block int) bool {
	for _, b := range c.freeBlocks[chip] {
		if b == block {
			return true
		}
	}
	return false
}

// refreshDue applies the refresh policy to one block: its own retention
// clock (never the chip-wide pre-aged override — that would never reset
// and the scrubber would loop forever) and its predicted worst-layer
// BER on the E<->P1 boundary.
func (c *Controller) refreshDue(chip, block int) bool {
	n := c.dev.Die(chip).NAND
	return c.cfg.RefreshPolicy.NeedsRefresh(n.BlockPredictedBER(block), n.RetentionMonths(block))
}

// refreshable reports whether a block may be scrub-relocated right now.
func (c *Controller) refreshable(chip, block int) bool {
	return !c.isActive(chip, block) && !c.retired[chip][block] && !c.inFreePool(chip, block)
}

// startRefresh begins one refresh relocation cycle.
func (c *Controller) startRefresh(chip, block int) {
	c.relocCause[chip] = causeRefresh
	c.setGCActive(chip, true)
	c.stats.Refreshes++
	if c.hub != nil {
		c.hub.Instant(telemetry.PidFTL, chip, "refresh")
	}
	c.relocate(chip, block, c.mapper.LivePages(chip, block))
}

// maybeScrub advances the retention patrol: every RefreshPatrolReads
// host reads on a die fund an inspection of the next block in rotation,
// and a block past the refresh thresholds is rewritten through the
// relocation machinery. The read-funded budget is the rate limit that
// keeps the scrubber yielding to tenant traffic.
func (c *Controller) maybeScrub(chip int) {
	if !c.cfg.Refresh {
		return
	}
	budget := c.cfg.RefreshPatrolReads
	if budget <= 0 {
		budget = DefaultRefreshPatrolReads
	}
	c.patrolCredit[chip]++
	if c.patrolCredit[chip] < budget {
		return
	}
	c.patrolCredit[chip] = 0
	if c.gcActive[chip] || c.dieDegraded[chip] || len(c.freeBlocks[chip]) <= 1 {
		return // never compete with GC or an out-of-space condition
	}
	block := c.patrolCursor[chip]
	c.patrolCursor[chip] = (block + 1) % c.geo.BlocksPerChip
	if c.refreshable(chip, block) && c.refreshDue(chip, block) {
		c.startRefresh(chip, block)
	}
}

// ScrubSweep scans every block of every die once, queueing a refresh
// for each block past the thresholds, and starts draining the queues.
// Used right after an aging fast-forward, when waiting for the patrol
// to walk the device would leave it degraded for a long warm-up.
// Returns the number of blocks queued.
func (c *Controller) ScrubSweep() int {
	if !c.cfg.Refresh {
		return 0
	}
	total := 0
	for chip := 0; chip < c.geo.Chips; chip++ {
		if c.dieDegraded[chip] {
			continue
		}
		for b := 0; b < c.geo.BlocksPerChip; b++ {
			if c.refreshable(chip, b) && c.refreshDue(chip, b) {
				c.pendingRefresh[chip] = append(c.pendingRefresh[chip], b)
				total++
			}
		}
		c.kickRefresh(chip)
	}
	return total
}

// kickRefresh starts the next queued refresh on a chip, re-validating
// each candidate (the queue can be stale: a block may have been GC'd,
// retired, or refreshed by the patrol since the sweep queued it).
func (c *Controller) kickRefresh(chip int) {
	if c.gcActive[chip] || c.dieDegraded[chip] || len(c.freeBlocks[chip]) <= 1 {
		return
	}
	for len(c.pendingRefresh[chip]) > 0 {
		block := c.pendingRefresh[chip][0]
		c.pendingRefresh[chip] = c.pendingRefresh[chip][1:]
		if c.refreshable(chip, block) && c.refreshDue(chip, block) {
			c.startRefresh(chip, block)
			return
		}
	}
}

// maybeWearLevel runs static wear leveling on a chip: when the die's
// erase-count spread crosses the policy threshold, the coldest
// (least-worn) data block is relocated so its low-wear block rejoins
// the rotation (the wear-aware allocator then prefers it). Rate
// limited to one move per completed GC cycle per die.
func (c *Controller) maybeWearLevel(chip int) {
	if !c.cfg.WearLevel || c.gcActive[chip] || c.dieDegraded[chip] || len(c.freeBlocks[chip]) <= 1 {
		return
	}
	if c.lastWLGC[chip] == c.stats.GCCount {
		return
	}
	n := c.dev.Die(chip).NAND
	minPE, maxPE, victim := int(^uint(0)>>1), -1, -1
	for b := 0; b < c.geo.BlocksPerChip; b++ {
		if c.retired[chip][b] {
			continue
		}
		pe := n.PECycles(b)
		if pe > maxPE {
			maxPE = pe
		}
		if pe < minPE {
			minPE = pe
		}
		// The move candidate is the least-worn block actually pinned by
		// data (not free, not an open write point).
		if !c.isActive(chip, b) && !c.inFreePool(chip, b) && (victim < 0 || pe < n.PECycles(victim)) {
			victim = b
		}
	}
	if victim < 0 || !c.cfg.WearPolicy.ShouldLevel(minPE, maxPE) {
		return
	}
	c.lastWLGC[chip] = c.stats.GCCount
	c.relocCause[chip] = causeWL
	c.setGCActive(chip, true)
	c.stats.WearLevels++
	if c.hub != nil {
		c.hub.Instant(telemetry.PidFTL, chip, "wear_level")
	}
	c.relocate(chip, victim, c.mapper.LivePages(chip, victim))
}

// GrowBadBlock retires a block as grown-bad on behalf of the aging
// fast-forward. It refuses (returns false) blocks that are already
// retired, are open write points, or sit on a die mid-relocation — the
// ager must not yank a block out from under in-flight work. A free-pool
// copy is dropped so the block can never be allocated again; live data
// is evacuated through the normal retirement machinery.
func (c *Controller) GrowBadBlock(chip, block int) bool {
	if chip < 0 || chip >= c.geo.Chips || block < 0 || block >= c.geo.BlocksPerChip {
		return false
	}
	if c.retired[chip][block] || c.isActive(chip, block) || c.gcActive[chip] {
		return false
	}
	for i, b := range c.freeBlocks[chip] {
		if b == block {
			c.freeBlocks[chip] = append(c.freeBlocks[chip][:i], c.freeBlocks[chip][i+1:]...)
			break
		}
	}
	c.retireBlock(chip, block)
	return true
}

// ScrubWindows returns every completed [start, end) simulated-time
// window during which some chip ran a refresh relocation.
func (c *Controller) ScrubWindows() [][2]sim.Time {
	return append([][2]sim.Time(nil), c.scrubWindows...)
}

// WAF returns the per-cause write-amplification ledger.
func (c *Controller) WAF() lifetime.WAF {
	return lifetime.WAF{
		HostPages:    c.stats.HostPages,
		GCPages:      c.stats.GCPages,
		RefreshPages: c.stats.RefreshPages,
		WLPages:      c.stats.WLPages,
		PageBytes:    int64(c.dev.Die(0).NAND.Config().PageBytes),
	}
}

// Write serves a host page write; done runs when the write is
// acknowledged (admitted to the buffer). Backpressure from a full
// buffer delays the acknowledgment. A write is rejected synchronously
// (done never runs) with ErrBadLPN outside the logical capacity or
// ErrDegraded once the device has dropped to read-only mode.
//
// pp, when non-nil, is a latency-attribution probe: an immediately
// admitted write charges the buffer stage; one held by backpressure
// charges the admission wait. The program that later flushes the page
// is background work, outside the host-visible span.
func (c *Controller) Write(lpn LPN, pp *telemetry.PageProbe, done func()) error {
	if lpn < 0 || int(lpn) >= c.mapper.LogicalPages() {
		return fmt.Errorf("%w: %d (capacity %d)", ErrBadLPN, lpn, c.mapper.LogicalPages())
	}
	if c.degraded {
		c.stats.WriteRejects++
		return ErrDegraded
	}
	c.stats.HostWrites++
	w := c.getHostWrite()
	w.start, w.done = c.eng.Now(), done
	stamp := c.writeStamp + 1
	if c.buf.Put(lpn, stamp) {
		c.writeStamp = stamp
		if pp != nil {
			pp.Buffered = true
			pp.BufferNs += c.cfg.BufferReadNs
		}
		if c.cfg.DurableAcks && c.rec != nil {
			// Hold the ack until the journal record of this write's
			// mapping is durable (released by the recovery manager).
			c.deferAck(w, lpn, stamp)
		} else {
			c.eng.After(c.cfg.BufferReadNs, w.onAck) // DMA into buffer
		}
		c.maybeFlush()
		return nil
	}
	c.pendingWrites.Push(pendingWrite{lpn: lpn, w: w, pp: pp, enqueuedNs: w.start})
	c.maybeFlush()
	return nil
}

// admitPending moves waiting host writes into freed buffer slots.
func (c *Controller) admitPending() {
	for c.pendingWrites.Len() > 0 {
		pw := c.pendingWrites.Peek()
		stamp := c.writeStamp + 1
		if !c.buf.Put(pw.lpn, stamp) {
			return
		}
		c.writeStamp = stamp
		c.pendingWrites.Pop()
		if pw.pp != nil {
			pw.pp.Buffered = true
			pw.pp.AdmitWaitNs += c.eng.Now() - pw.enqueuedNs
		}
		if c.cfg.DurableAcks && c.rec != nil {
			c.deferAck(pw.w, pw.lpn, stamp)
		} else {
			pw.w.ack()
		}
	}
}

// maybeFlush issues word-line programs while buffered pages and chip
// slots are available.
func (c *Controller) maybeFlush() {
	if c.degraded {
		return
	}
	for c.buf.Flushable() >= vth.PagesPerWL {
		chip, ok := c.pickChip()
		if !ok {
			return
		}
		c.flushTo(chip, c.takeFlushGroup())
	}
	if c.buf.Flushable() > 0 {
		c.armFlushTimer()
	}
}

// pickChip round-robins over dies with an open program slot, dispatching
// to idle dies first so a flush burst spreads across the array before
// any die queues a second operation. Degraded dies and dies whose
// free-block pool is critically low are skipped for host flushes so
// in-progress garbage collection always has blocks to write into.
func (c *Controller) pickChip() (int, bool) {
	n := c.geo.Chips
	eligible := func(die int) bool {
		return !c.dieDegraded[die] &&
			c.inflight[die] < c.cfg.MaxInflightProgramsPerChip &&
			len(c.freeBlocks[die]) > 1
	}
	// First pass: idle dies only (nothing queued or running on their
	// planes). Second pass: any eligible die.
	for i := 0; i < n; i++ {
		die := (c.flushChip + i) % n
		if eligible(die) && !c.dev.Die(die).Busy() {
			c.flushChip = (die + 1) % n
			return die, true
		}
	}
	for i := 0; i < n; i++ {
		die := (c.flushChip + i) % n
		if eligible(die) {
			c.flushChip = (die + 1) % n
			return die, true
		}
	}
	return 0, false
}

// armFlushTimer schedules a partial flush so trickle writes complete.
func (c *Controller) armFlushTimer() {
	if c.timerArmed || c.degraded {
		return
	}
	c.timerArmed = true
	if c.onFlushTimer == nil {
		c.onFlushTimer = c.flushTimerFired
	}
	c.eng.After(c.cfg.FlushTimeoutNs, c.onFlushTimer)
}

func (c *Controller) flushTimerFired() {
	c.timerArmed = false
	if c.degraded || c.buf.Flushable() == 0 {
		return
	}
	if chip, ok := c.pickChip(); ok {
		f := c.takeFlushGroup()
		c.stats.Padded += int64(vth.PagesPerWL - len(f.group))
		c.flushTo(chip, f)
	} else {
		// No chip can take the flush right now. Re-arm unless the
		// device as a whole has lost the ability to make progress.
		c.checkDegraded()
		c.armFlushTimer()
	}
}

// allocateWL asks the policy for a word line, rotating full active
// blocks out for fresh ones as needed. It fails with ErrOutOfSpace when
// the chip's free pool cannot back another write point, or with
// ErrAllocFailed if the policy cannot place a word line on non-full
// actives (a policy bug, surfaced instead of crashed on).
func (c *Controller) allocateWL(chip int) (cursor *BlockCursor, layer, wl int, err error) {
	for attempt := 0; attempt < 2; attempt++ {
		if len(c.actives[chip]) == 0 {
			return nil, 0, 0, fmt.Errorf("%w: chip %d", ErrOutOfSpace, chip)
		}
		idx, l, w, ok := c.pol.SelectWL(chip, c.actives[chip], c.buf.Utilization())
		if ok {
			return c.actives[chip][idx], l, w, nil
		}
		// Every active block is full: retire them all and retry.
		for i := len(c.actives[chip]) - 1; i >= 0; i-- {
			cur := c.actives[chip][i]
			if !cur.Full() {
				continue
			}
			c.pol.BlockRetired(chip, cur.Block)
			if fresh, ok := c.takeFreeBlock(chip); ok {
				c.actives[chip][i] = fresh
			} else {
				c.actives[chip] = append(c.actives[chip][:i], c.actives[chip][i+1:]...)
			}
		}
	}
	return nil, 0, 0, fmt.Errorf("%w: %s on chip %d", ErrAllocFailed, c.pol.Name(), chip)
}

// takeFlushGroup claims the next word line's worth of buffered pages on
// a fresh flush record.
func (c *Controller) takeFlushGroup() *flushOp {
	f := c.getFlush()
	f.group = c.buf.TakeFlushGroup(f.groupBuf[:0], vth.PagesPerWL)
	return f
}

// flushTo programs one word line on the chip from the record's group of
// buffered pages.
func (c *Controller) flushTo(chip int, f *flushOp) {
	cursor, layer, wl, err := c.allocateWL(chip)
	if err != nil {
		// The die cannot place the group: return the data to the
		// buffer for another die (or a later retry) and reassess.
		c.requeueInstant(chip, "requeue_alloc_fail", c.reqAlloc)
		c.buf.Requeue(f.group)
		f.release()
		c.checkDieDegraded(chip)
		return
	}
	cursor.Take(layer, wl)
	f.chip, f.cursor, f.block, f.layer, f.wl = chip, cursor, cursor.Block, layer, wl
	f.params = c.pol.ProgramParams(chip, f.block, layer, wl)
	addr := nand.Address{Block: f.block, Layer: layer, WL: wl}
	c.inflight[chip]++
	f.issueAt = c.eng.Now()
	c.dev.Program(chip, addr, c.hostPages(f.group), f.flushOOB(cursor.Seq), f.params, f.onProgram)
}

func (c *Controller) retireIfFull(chip int, cursor *BlockCursor) {
	if !cursor.Full() {
		return
	}
	for i, cur := range c.actives[chip] {
		if cur == cursor {
			c.pol.BlockRetired(chip, cursor.Block)
			if fresh, ok := c.takeFreeBlock(chip); ok {
				c.actives[chip][i] = fresh
			} else {
				c.actives[chip] = append(c.actives[chip][:i], c.actives[chip][i+1:]...)
				c.checkDieDegraded(chip)
			}
			return
		}
	}
}

// retireActive pulls a failed block out of the chip's write points and
// retires it as grown-bad, backfilling the write point when a fresh
// block is available.
func (c *Controller) retireActive(chip int, cursor *BlockCursor) {
	for i, cur := range c.actives[chip] {
		if cur != cursor {
			continue
		}
		c.pol.BlockRetired(chip, cursor.Block)
		if fresh, ok := c.takeFreeBlock(chip); ok {
			c.actives[chip][i] = fresh
		} else {
			c.actives[chip] = append(c.actives[chip][:i], c.actives[chip][i+1:]...)
		}
		break
	}
	c.retireBlock(chip, cursor.Block)
}

// retireBlock marks a block grown-bad: the chip records the bad-block
// mark (as a controller writes one into the spare area), the block
// never returns to the free pool, and any live pages it still holds
// are queued for evacuation to fresh blocks.
func (c *Controller) retireBlock(chip, block int) {
	if c.retired[chip][block] {
		return
	}
	c.retired[chip][block] = true
	c.stats.RetiredBlocks++
	c.emitRetireEvent(chip, block)
	c.dev.Die(chip).NAND.MarkBadBlock(block)
	if c.rec != nil {
		c.rec.NoteRetired(chip, block)
	}
	if c.mapper.ValidCount(chip, block) > 0 {
		c.evacuate(chip, block)
	}
	c.checkDieDegraded(chip)
}

// emitRetireEvent logs a grown-bad retirement to the structured event
// log (when one is attached to the hub).
func (c *Controller) emitRetireEvent(chip, block int) {
	if c.hub.EventLog() == nil {
		return
	}
	c.hub.EmitEvent(telemetry.Event{
		Type:   telemetry.EvBlockRetire,
		Fields: map[string]float64{"chip": float64(chip), "block": float64(block)},
	})
}

// evacuate relocates a retired block's live pages through the GC
// relocation machinery (finishGC recognizes retired blocks and skips
// the erase/free-pool return). One relocation cycle runs per chip at a
// time; the rest queue.
func (c *Controller) evacuate(chip, block int) {
	if c.gcActive[chip] {
		c.pendingRetire[chip] = append(c.pendingRetire[chip], block)
		return
	}
	c.setGCActive(chip, true)
	c.relocate(chip, block, c.mapper.LivePages(chip, block))
}

// dieStuck reports that a die can make no forward progress on writes:
// no in-flight GC to replenish its pool, no flush headroom in the
// pool, and no GC victim left to collect.
func (c *Controller) dieStuck(die int) bool {
	if c.gcActive[die] || len(c.freeBlocks[die]) > 1 {
		return false
	}
	if len(c.freeBlocks[die]) > 0 {
		if _, ok := c.pickVictim(die); ok {
			return false
		}
	}
	return true
}

// markDieDegraded drops one die to read-only: it is fenced at the
// device so grants already queued on its channel or planes fail with
// ErrDieFenced instead of programming a read-only die.
func (c *Controller) markDieDegraded(die int) {
	if c.dieDegraded[die] {
		return
	}
	c.dieDegraded[die] = true
	c.stats.DegradedDies++
	if c.hub != nil {
		c.hub.Instant(telemetry.PidFTL, die, "die_degraded")
	}
	if c.hub.EventLog() != nil {
		c.hub.EmitEvent(telemetry.Event{
			Type:   telemetry.EvDieDegraded,
			Fields: map[string]float64{"die": float64(die)},
		})
	}
	if c.rec != nil {
		c.rec.NoteDieDegraded(die)
	}
	c.dev.FenceDiePrograms(die)
	// Abandon the die's write points: the fence refuses every future
	// grant, so a cursor kept open here would claim word lines the die
	// never programmed (e.g. one taken by a program the fence failed).
	for _, cur := range c.actives[die] {
		c.pol.BlockRetired(die, cur.Block)
	}
	c.actives[die] = nil
}

// checkDieDegraded degrades one die if it is stuck, then reassesses
// the device. One dead die must not force the whole device read-only:
// writes keep flowing to the surviving dies.
func (c *Controller) checkDieDegraded(die int) {
	if c.dieDegraded[die] || !c.dieStuck(die) {
		return
	}
	c.markDieDegraded(die)
	c.checkDeviceDegraded()
}

// checkDeviceDegraded drops the whole device into read-only degraded
// mode once every die is degraded or stuck. Queued host writes that
// can no longer be admitted are completed and counted as rejected (a
// real device would fail them with a media error; reads keep working
// either way).
func (c *Controller) checkDeviceDegraded() {
	if c.degraded {
		return
	}
	for die := 0; die < c.geo.Chips; die++ {
		if !c.dieDegraded[die] && !c.dieStuck(die) {
			return
		}
	}
	for die := 0; die < c.geo.Chips; die++ {
		c.markDieDegraded(die)
	}
	c.degraded = true
	for c.pendingWrites.Len() > 0 {
		pw := c.pendingWrites.Pop()
		c.stats.WriteRejects++
		if pw.pp != nil {
			pw.pp.AdmitWaitNs += c.eng.Now() - pw.enqueuedNs
		}
		pw.w.ack()
	}
	// Held durable acks can never be released by journal flushes now
	// (their data will never program): complete them so the host's
	// closed loop terminates. They are NOT recorded as durable.
	held := c.heldAcks
	c.heldAcks, c.heldAcksTail = nil, nil
	c.pendingAckCount = 0
	runAcks(held)
}

// checkDegraded sweeps every die (used when no single die can be
// blamed, e.g. the flush timer finding no chip to flush to).
func (c *Controller) checkDegraded() {
	for die := 0; die < c.geo.Chips; die++ {
		c.checkDieDegraded(die)
	}
	c.checkDeviceDegraded()
}

// isActive reports whether a block is an open write point on its chip.
func (c *Controller) isActive(chip, block int) bool {
	for _, cur := range c.actives[chip] {
		if cur.Block == block {
			return true
		}
	}
	return false
}

// checkGC starts garbage collection on a die whose free pool ran low.
func (c *Controller) checkGC(chip int) {
	if c.dieDegraded[chip] || c.gcActive[chip] || len(c.freeBlocks[chip]) > c.cfg.GCFreeBlocksLow {
		return
	}
	victim, ok := c.pickVictim(chip)
	if !ok {
		c.checkDieDegraded(chip)
		return
	}
	c.setGCActive(chip, true)
	c.stats.GCCount++
	c.relocate(chip, victim, c.mapper.LivePages(chip, victim))
}

// pickVictim selects the non-active, non-free, non-retired block with
// the fewest valid pages (greedy policy).
func (c *Controller) pickVictim(chip int) (int, bool) {
	free := make(map[int]bool, len(c.freeBlocks[chip]))
	for _, b := range c.freeBlocks[chip] {
		free[b] = true
	}
	best, bestValid := -1, int(^uint(0)>>1)
	for b := 0; b < c.geo.BlocksPerChip; b++ {
		if free[b] || c.isActive(chip, b) || c.retired[chip][b] {
			continue
		}
		if v := c.mapper.ValidCount(chip, b); v < bestValid {
			best, bestValid = b, v
		}
	}
	return best, best >= 0
}

// relocate moves the victim's live pages in word-line-sized batches,
// then erases it. Each batch is read page by page and programmed into
// an active block in one shot (see relocOp).
func (c *Controller) relocate(chip, victim int, lpns []LPN) {
	// Collect the next batch of still-live victim pages.
	var batch [vth.PagesPerWL]LPN
	n := 0
	for n < vth.PagesPerWL && len(lpns) > 0 {
		cand := lpns[0]
		lpns = lpns[1:]
		ppn := c.mapper.Lookup(cand)
		if ppn == ssd.UnmappedPPN {
			continue
		}
		vc, vb, _, _, _ := c.geo.DecodePPN(ppn)
		if vc != chip || vb != victim {
			continue
		}
		batch[n] = cand
		n++
	}
	if n == 0 {
		c.finishGC(chip, victim)
		return
	}
	g := c.getReloc()
	g.chip, g.victim, g.rest = chip, victim, lpns
	g.batch, g.n, g.i = batch, n, 0
	g.readNext()
}

// finishGC closes a relocation cycle: a normal victim is erased and
// returned to the free pool; a retired block is simply left behind
// (its evacuation is complete and it must never be reused). An erase
// failure converts the victim into a grown bad block on the spot.
func (c *Controller) finishGC(chip, victim int) {
	if c.mapper.ValidCount(chip, victim) > 0 {
		// A program issued before this cycle began can still complete
		// mid-relocation and map pages into the victim (the block left
		// the active set with the program in flight), and those pages
		// postdate the relocation snapshot. Sweep them too; erasing now
		// would destroy them.
		c.relocate(chip, victim, c.mapper.LivePages(chip, victim))
		return
	}
	if c.retired[chip][victim] {
		c.mapper.ClearBlock(chip, victim)
		c.gcFinished(chip)
		return
	}
	erase := func() {
		if c.mapper.ValidCount(chip, victim) > 0 {
			// A straggler program mapped into the victim while the erase
			// waited for journal durability: sweep again first.
			c.relocate(chip, victim, c.mapper.LivePages(chip, victim))
			return
		}
		c.dev.Erase(chip, victim, func(_ nand.EraseResult, err error) {
			if err != nil {
				// Erase failure: the block is grown-bad. Its live data was
				// already relocated, so retiring it loses nothing.
				c.stats.EraseFailures++
				if !c.retired[chip][victim] {
					c.retired[chip][victim] = true
					c.stats.RetiredBlocks++
					c.emitRetireEvent(chip, victim)
					if c.rec != nil {
						c.rec.NoteRetired(chip, victim)
					}
				}
				c.mapper.ClearBlock(chip, victim)
				c.stats.FaultRecoveries++
				c.gcFinished(chip)
				return
			}
			c.mapper.ClearBlock(chip, victim)
			repool := func() {
				c.freeBlocks[chip] = append(c.freeBlocks[chip], victim)
				c.pol.BlockErased(chip, victim)
				c.gcFinished(chip)
			}
			if c.rec != nil {
				// The block may not be reopened until its erase record is
				// durable, or recovery could resurrect pre-erase mappings.
				c.rec.NoteErased(chip, victim, repool)
			} else {
				repool()
			}
		})
	}
	if c.rec != nil {
		// Every journal record relocating data out of the victim must be
		// durable before the cells are wiped.
		c.rec.BarrierErase(chip, victim, erase)
	} else {
		erase()
	}
}

// gcFinished ends one relocation cycle and starts the next piece of
// background work, in priority order: queued retirement evacuations,
// space-pressure GC, queued refreshes, then a static wear-leveling
// move if the spread warrants one.
func (c *Controller) gcFinished(chip int) {
	c.setGCActive(chip, false)
	for len(c.pendingRetire[chip]) > 0 {
		block := c.pendingRetire[chip][0]
		c.pendingRetire[chip] = c.pendingRetire[chip][1:]
		if c.mapper.ValidCount(chip, block) > 0 {
			c.setGCActive(chip, true)
			c.relocate(chip, block, c.mapper.LivePages(chip, block))
			return
		}
		c.mapper.ClearBlock(chip, block)
	}
	c.checkGC(chip)
	if !c.gcActive[chip] {
		c.kickRefresh(chip)
	}
	if !c.gcActive[chip] {
		c.maybeWearLevel(chip)
	}
	c.maybeFlush()
}

// Drained reports that no host work is pending anywhere: used by runs
// to quiesce before measuring. A degraded device is considered drained
// once nothing is in flight — its buffered pages can never flush.
func (c *Controller) Drained() bool {
	if c.pendingWrites.Len() > 0 || (!c.degraded && c.buf.Occupied() > 0) {
		return false
	}
	if c.pendingAckCount > 0 && !c.degraded {
		return false
	}
	for _, n := range c.inflight {
		if n > 0 {
			return false
		}
	}
	return true
}

// SetRecovery attaches (or detaches, with nil) the crash-consistency
// hook. Attach before driving I/O; the recovery manager immediately
// checkpoints the controller's full state, so deltas that predate the
// hook are covered by the checkpoint rather than the journal.
func (c *Controller) SetRecovery(rec RecoveryHook) { c.rec = rec }

// Recovery returns the attached crash-consistency hook, or nil.
func (c *Controller) Recovery() RecoveryHook { return c.rec }

// StampOf returns the global write stamp of the mapped copy of lpn
// (zero when never mapped since the stamp counter started).
func (c *Controller) StampOf(lpn LPN) uint64 { return c.stamps[lpn] }

// PendingAckCount returns how many host write acks are waiting for
// journal durability (DurableAcks mode).
func (c *Controller) PendingAckCount() int { return c.pendingAckCount }

// deferAck holds w's ack until ReleaseDurableAcks covers (lpn, stamp).
// Stamps are issued in admission order, so appending keeps the chain
// sorted by stamp.
func (c *Controller) deferAck(w *hostWrite, lpn LPN, stamp uint64) {
	w.lpn, w.stamp = lpn, stamp
	if c.heldAcksTail == nil {
		c.heldAcks = w
	} else {
		c.heldAcksTail.next = w
	}
	c.heldAcksTail = w
	c.pendingAckCount++
}

// ReleaseDurableAcks completes every held ack for lpn whose stamp is
// <= stamp — called by the recovery manager when the journal record
// mapping that stamp becomes durable. Older coalesced acks are covered
// by the newer durable data (host write order is preserved per LPN).
// The chain is sorted by stamp and mappings become durable in roughly
// the order their writes were admitted, so the walk ends within the
// few writes still held from before this one.
func (c *Controller) ReleaseDurableAcks(lpn LPN, stamp uint64) {
	var released, prev *hostWrite
	tail := &released
	for link := &c.heldAcks; *link != nil && (*link).stamp <= stamp; {
		w := *link
		if w.lpn != lpn {
			prev, link = w, &w.next
			continue
		}
		// Unlink w from the held chain, append it to the released one.
		*link = w.next
		if c.heldAcksTail == w {
			c.heldAcksTail = prev
		}
		w.next = nil
		*tail, tail = w, &w.next
		c.pendingAckCount--
	}
	// Acks may reenter the controller (the host issues its next
	// command synchronously): run them only after the chain is settled.
	runAcks(released)
}

// runAcks acknowledges a detached chain of host writes, oldest first.
// An ack releases its record, which a reentrant Write may take and chain
// again, so the link is read before the ack runs.
func runAcks(w *hostWrite) {
	for w != nil {
		next := w.next
		w.next = nil
		w.ack()
		w = next
	}
}

// setGCActive flips a chip's GC state, recording completed collection
// windows for the power-cut sweep (refresh windows additionally land
// in scrubWindows so cuts can target mid-scrub instants).
func (c *Controller) setGCActive(chip int, on bool) {
	if c.gcActive[chip] == on {
		return
	}
	c.gcActive[chip] = on
	if on {
		c.gcStart[chip] = c.eng.Now()
		return
	}
	win := [2]sim.Time{c.gcStart[chip], c.eng.Now()}
	c.gcWindows = append(c.gcWindows, win)
	if c.relocCause[chip] == causeRefresh {
		c.scrubWindows = append(c.scrubWindows, win)
	}
	c.relocCause[chip] = causeGC
}

// GCWindows returns every completed [start, end) simulated-time window
// during which some chip ran GC or evacuation.
func (c *Controller) GCWindows() [][2]sim.Time {
	return append([][2]sim.Time(nil), c.gcWindows...)
}

// GCActiveAny reports whether any chip is mid-collection.
func (c *Controller) GCActiveAny() bool {
	for _, on := range c.gcActive {
		if on {
			return true
		}
	}
	return false
}
