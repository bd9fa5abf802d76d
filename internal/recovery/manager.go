package recovery

import (
	"cubeftl/internal/ftl"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// Timing model for the system area. The journal accumulates records in
// controller RAM and flushes as a batch (one small metadata program);
// checkpoints cost a base latency plus a per-byte transfer cost; the
// mount path charges a fixed cost per OOB spare-area read and per
// free-block probe.
const (
	// JournalFlushNs is the latency of one journal batch flush. Records
	// appended while a flush is in flight ride the next batch.
	JournalFlushNs sim.Time = 100 * 1000

	// CkptBaseNs + CkptNsPerByte*len model a checkpoint write (and the
	// symmetric read at mount).
	CkptBaseNs    sim.Time = 100 * 1000
	CkptNsPerByte sim.Time = 2

	// OOBReadNs is one spare-area read during the roll-forward scan or
	// a free-pool probe.
	OOBReadNs sim.Time = 20 * 1000

	// DefaultCkptIntervalNs is the default periodic checkpoint cadence.
	DefaultCkptIntervalNs sim.Time = 20 * sim.Millisecond
)

// Options configures an attached Manager.
type Options struct {
	// CkptIntervalNs is the periodic checkpoint cadence; 0 selects
	// DefaultCkptIntervalNs, negative disables periodic checkpoints
	// (the attach-time checkpoint is still written).
	CkptIntervalNs sim.Time

	// Ledger, when non-nil, is fed every write the subsystem commits to
	// as durable — the oracle the post-recovery verifier checks against.
	Ledger *Ledger
}

// Manager is the runtime half of the recovery subsystem: it implements
// ftl.RecoveryHook, batches journal appends into periodic flushes,
// defers erase/repool/ack transitions until their justifying records
// are durable, writes periodic checkpoints, and executes the power cut.
// The manager itself is volatile — only its SystemArea survives a cut.
type Manager struct {
	eng    *sim.Engine
	ctrl   *ftl.Controller
	sys    *SystemArea
	ledger *Ledger

	ckptInterval sim.Time

	// Journal staging. Absolute offsets: [0, sys.durableEnd) is
	// durable, then len(inflight) bytes mid-flush, then len(ram) bytes
	// still in RAM; appended is one past the last RAM byte.
	ram      []byte
	inflight []byte
	flushing bool
	appended uint64

	waiters []waiter

	ckptBusy    bool
	ckptWindows [][2]sim.Time

	dead bool
}

// waiter runs fn once the journal is durable through absolute offset
// off (by flush or by a checkpoint whose cutoff covers it).
type waiter struct {
	off uint64
	fn  func()
}

// Attach wires a Manager to a controller: installs it as the
// controller's RecoveryHook, writes an immediate checkpoint of the
// controller's current state (the genesis/post-mount checkpoint — the
// device is never exposed without at least one valid slot), and arms
// the periodic checkpoint timer.
func Attach(ctrl *ftl.Controller, sys *SystemArea, opts Options) *Manager {
	interval := opts.CkptIntervalNs
	if interval == 0 {
		interval = DefaultCkptIntervalNs
	}
	m := &Manager{
		eng:          ctrl.Engine(),
		ctrl:         ctrl,
		sys:          sys,
		ledger:       opts.Ledger,
		ckptInterval: interval,
		appended:     sys.durableEnd(),
	}
	ctrl.SetRecovery(m)
	m.checkpoint(true)
	m.armCkptTimer()
	return m
}

// Ledger returns the attached durability oracle (nil if none).
func (m *Manager) Ledger() *Ledger { return m.ledger }

// System returns the manager's system area.
func (m *Manager) System() *SystemArea { return m.sys }

// CkptWindows returns the [start, durable) interval of every completed
// checkpoint write — used by tests to aim power cuts mid-checkpoint.
func (m *Manager) CkptWindows() [][2]sim.Time {
	return append([][2]sim.Time(nil), m.ckptWindows...)
}

// StateBytes returns the newest durable checkpoint image.
func (m *Manager) StateBytes() []byte { return m.sys.StateBytes() }

// Quiesced reports whether the system area is fully durable: no journal
// bytes staged in RAM or mid-flush and no checkpoint write in flight. A
// graceful shutdown runs the engine until Quiesced holds (after
// CheckpointNow) so the next mount starts from a zero-age checkpoint.
// A dead (power-cut) manager counts as quiesced — there is nothing
// left it could make durable.
func (m *Manager) Quiesced() bool {
	return m.dead || (!m.ckptBusy && !m.flushing && len(m.ram) == 0)
}

// durablePoint is the absolute journal offset below which every fact
// is durable — covered either by flushed journal bytes or by the
// newest valid checkpoint (whose snapshot subsumes all earlier
// records).
func (m *Manager) durablePoint() uint64 {
	d := m.sys.durableEnd()
	if i := m.sys.newestSlot(); i >= 0 && m.sys.slots[i].cutoff > d {
		d = m.sys.slots[i].cutoff
	}
	return d
}

func (m *Manager) append(rec []byte) {
	if m.dead {
		return
	}
	m.ram = append(m.ram, rec...)
	m.appended += uint64(len(rec))
	m.kickFlush()
}

func (m *Manager) kickFlush() {
	if m.dead || m.flushing || len(m.ram) == 0 {
		return
	}
	m.flushing = true
	m.inflight = m.ram
	m.ram = nil
	m.eng.After(JournalFlushNs, m.finishFlush)
}

func (m *Manager) finishFlush() {
	if m.dead {
		return
	}
	m.sys.journal = append(m.sys.journal, m.inflight...)
	m.inflight = nil
	m.flushing = false
	m.release()
	m.kickFlush()
}

// waitDurable runs fn once the journal is durable through off. The
// callback may append new records or re-enter waitDurable; the waiter
// list is settled before any callback runs.
func (m *Manager) waitDurable(off uint64, fn func()) {
	if m.dead {
		return
	}
	if off <= m.durablePoint() {
		fn()
		return
	}
	m.waiters = append(m.waiters, waiter{off: off, fn: fn})
	m.kickFlush()
}

func (m *Manager) release() {
	d := m.durablePoint()
	var run []func()
	rest := m.waiters[:0]
	for _, w := range m.waiters {
		if w.off <= d {
			run = append(run, w.fn)
		} else {
			rest = append(rest, w)
		}
	}
	m.waiters = rest
	for _, fn := range run {
		fn()
	}
}

// --- ftl.RecoveryHook ---

// NoteBlockOpened implements ftl.RecoveryHook.
func (m *Manager) NoteBlockOpened(chip, block int, seq uint64) {
	m.append(encodeBlockOpened(chip, block, seq))
}

// NoteMapped implements ftl.RecoveryHook. Once the record is durable
// the write is committed: the ledger learns it and any deferred host
// acks for it release.
func (m *Manager) NoteMapped(lpn ftl.LPN, ppn ssd.PPN, stamp uint64) {
	m.append(encodeMapped(lpn, ppn, stamp))
	m.waitDurable(m.appended, func() {
		if m.ledger != nil {
			m.ledger.Record(lpn, stamp)
		}
		m.ctrl.ReleaseDurableAcks(lpn, stamp)
	})
}

// NoteTrim implements ftl.RecoveryHook.
func (m *Manager) NoteTrim(lpn ftl.LPN) {
	m.append(encodeTrim(lpn))
	m.waitDurable(m.appended, func() {
		if m.ledger != nil {
			m.ledger.RecordTrim(lpn)
		}
	})
}

// NoteRetired implements ftl.RecoveryHook.
func (m *Manager) NoteRetired(chip, block int) {
	m.append(encodeChipBlock(recRetired, chip, block))
}

// NoteDieDegraded implements ftl.RecoveryHook.
func (m *Manager) NoteDieDegraded(die int) {
	m.append(encodeDieDegraded(die))
}

// BarrierErase implements ftl.RecoveryHook: the erase may only start
// once every record appended so far — in particular the Mapped records
// relocating the victim's live pages — is durable.
func (m *Manager) BarrierErase(chip, block int, proceed func()) {
	m.waitDurable(m.appended, proceed)
}

// NoteErased implements ftl.RecoveryHook: the block returns to the
// free pool only once the Erased record is durable, so recovery can
// never see the block reused while the journal still shows its old
// contents live.
func (m *Manager) NoteErased(chip, block int, proceed func()) {
	m.append(encodeChipBlock(recErased, chip, block))
	m.waitDurable(m.appended, proceed)
}

// --- checkpoints ---

func (m *Manager) armCkptTimer() {
	if m.dead || m.ckptInterval <= 0 {
		return
	}
	m.eng.After(m.ckptInterval, func() {
		m.checkpoint(false)
		if m.ckptInterval <= 0 || m.dead {
			return
		}
		if !m.ckptBusy { // checkpoint was skipped; rearm here
			m.armCkptTimer()
		}
	})
}

// checkpoint captures the controller state and writes it to the older
// slot. The slot is invalidated the moment the write begins — a power
// cut mid-write tears this slot and recovery falls back to the other
// one. sync installs immediately (attach-time checkpoint); otherwise
// the install lands after the modeled write latency.
func (m *Manager) checkpoint(sync bool) {
	if m.dead || m.ckptBusy {
		return
	}
	start := m.eng.Now()
	ms := m.ctrl.StateSnapshot()
	var pol []byte
	if ps, ok := m.ctrl.Policy().(ftl.PolicyStateSaver); ok {
		pol = ps.SaveState()
	}
	data := encodeCheckpoint(ms, pol)
	cutoff := m.appended
	stamp := uint64(1)
	for i := range m.sys.slots {
		if m.sys.slots[i].stamp >= stamp {
			stamp = m.sys.slots[i].stamp + 1
		}
	}
	slot := m.sys.oldestSlot()
	m.sys.slots[slot].valid = false
	install := func() {
		m.sys.slots[slot] = ckptSlot{valid: true, stamp: stamp, cutoff: cutoff, at: start, data: data}
		m.sys.truncate(cutoff)
		m.ckptBusy = false
		m.ckptWindows = append(m.ckptWindows, [2]sim.Time{start, m.eng.Now()})
		m.release()
	}
	if sync {
		install()
		return
	}
	m.ckptBusy = true
	m.eng.After(CkptBaseNs+CkptNsPerByte*sim.Time(len(data)), func() {
		if m.dead {
			return
		}
		install()
		m.armCkptTimer()
	})
}

// CheckpointNow forces a checkpoint write (asynchronous; durable after
// the modeled latency).
func (m *Manager) CheckpointNow() { m.checkpoint(false) }

// --- power cut ---

// PowerCut halts the device at the current instant, leaving the media
// exactly as a real power loss would:
//
//   - every in-flight word-line program becomes a partial program
//     (unreadable payload, no valid OOB);
//   - every in-flight erase leaves its block half-erased;
//   - the journal keeps only its durable bytes plus a torn fragment of
//     the batch that was mid-flush (CRC framing detects the tear);
//   - a checkpoint slot being rewritten stays invalid;
//   - buffered writes, pending acks, and all other controller RAM
//     vanish with the engine.
//
// After PowerCut the manager is dead: the old engine must be abandoned
// and the device remounted with Mount over the surviving nand.Array
// and SystemArea.
func (m *Manager) PowerCut() {
	if m.dead {
		return
	}
	m.dead = true
	m.sys.cutAt = m.eng.Now()
	if m.flushing && len(m.inflight) > 0 {
		m.sys.journal = append(m.sys.journal, m.inflight[:len(m.inflight)/2]...)
	}
	dev := m.ctrl.Device()
	for _, op := range dev.InflightMediaOps() {
		chipNAND := dev.Die(op.Die).NAND
		switch op.Kind {
		case ssd.MediaProgram:
			chipNAND.CutWordLine(op.Addr)
		case ssd.MediaErase:
			chipNAND.CutErase(op.Block)
		}
	}
}
