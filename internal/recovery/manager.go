package recovery

import (
	"slices"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
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
// defers erase/repool/trim transitions until their justifying records
// are durable, writes periodic checkpoints, and takes the image a power
// cut would leave (Cut). The manager itself is volatile: of what it
// keeps, only the SystemArea is in that image.
type Manager struct {
	eng    *sim.Engine
	ctrl   *ftl.Controller
	sys    *SystemArea
	ledger *Ledger

	ckptInterval sim.Time

	// Journal staging. Absolute offsets: [0, sys.durableEnd) is
	// durable, then len(inflight) bytes mid-flush, then len(ram) bytes
	// still in RAM; appended is one past the last RAM byte. Records are
	// encoded in place at the end of ram; a flush swaps the two buffers,
	// so the staging path allocates only while a buffer is still growing
	// toward the largest batch seen.
	ram      []byte
	inflight []byte // empty unless flushing
	flushing bool
	appended uint64

	// waiters is FIFO in off: every waiter waits on the value appended
	// had when it was queued, and appended only grows.
	waiters pool.Ring[waiter]

	// The checkpoint being written (ckptBusy): where it goes and what it
	// covers, installed by finishCheckpoint.
	ckptBusy    bool
	ckpt        pendingCkpt
	enc         ckptEncoder
	slotLogs    [2]slotLog // by slot
	ckptPatched int        // checkpoints written by patchCheckpoint

	// Engine callbacks, bound once.
	onFlushDone, onCkptTimer, onCkptDone func()
}

// waiter is one deferred transition, run once the journal is durable
// through absolute offset off (by flush or by a checkpoint whose cutoff
// covers it). A write needs none: its OOB record commits it.
type waiter struct {
	off  uint64
	kind waiterKind

	lpn     ftl.LPN // waitTrim
	stamp   uint64  // waitTrim
	proceed func()  // waitProceed
}

type waiterKind uint8

const (
	// waitTrim: the trim of lpn is committed.
	waitTrim waiterKind = iota
	// waitProceed: run proceed (an erase or a re-pool held back by the
	// controller).
	waitProceed
)

// slotLog is what this manager knows about the image it last encoded
// into one slot's buffer. While patchable holds, dirty holds every page
// mapped or trimmed since that encode, overwrites, relocations and first
// writes alike. A page never loses its stamp (a trim leaves a tombstone),
// so the set of pages with one can only have grown, by the pages of dirty
// the image does not list; the image's other records are the right ones
// except at the pages in dirty. The next checkpoint into the slot rewrites
// those in place and inserts the new ones instead of walking the logical
// space. The zero value (a fresh manager: the slot's bytes are some
// earlier life's) is not patchable.
type slotLog struct {
	patchable bool
	dirty     []ftl.LPN // at most dirtyLogCap, repeats kept
	bodyCRC   uint32    // of the image's header and records (ckptEncoder.bodyCRC)
}

// note logs a page mapped or trimmed anew; a full log gives the slot up.
func (lg *slotLog) note(lpn ftl.LPN) {
	switch {
	case !lg.patchable:
	case len(lg.dirty) == dirtyLogCap:
		lg.patchable = false
	default:
		lg.dirty = append(lg.dirty, lpn)
	}
}

// dirtyLogCap bounds a slot's dirty log. A slot is rewritten every other
// checkpoint, so at the default cadence the log sees 40 ms of device
// clock: a served device's prefill maps some 1 800 pages a slot in that
// time. A log that fills up gives the slot back to the full encode, as it
// must when checkpoints are off and nothing ever empties it.
const dirtyLogCap = 4096

// pendingCkpt describes a checkpoint between the start of its write and
// its install.
type pendingCkpt struct {
	slot   int
	stamp  uint64
	cutoff uint64
	start  sim.Time
	grown  bool // patched an image whose set of pages has grown since
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
	for i := range m.slotLogs {
		m.slotLogs[i].dirty = make([]ftl.LPN, 0, dirtyLogCap)
	}
	m.enc.dirty, m.enc.at = make([]ftl.LPN, 0, dirtyLogCap), make([]int, 0, dirtyLogCap)
	m.onFlushDone, m.onCkptTimer, m.onCkptDone = m.finishFlush, m.CheckpointNow, m.finishCheckpoint
	ctrl.SetRecovery(m)
	m.checkpoint(true)
	m.armCkptTimer()
	return m
}

// Ledger returns the attached durability oracle (nil if none).
func (m *Manager) Ledger() *Ledger { return m.ledger }

// System returns the manager's system area.
func (m *Manager) System() *SystemArea { return m.sys }

// Quiesced reports whether the system area is fully durable: no journal
// bytes staged in RAM or mid-flush and no checkpoint write in flight. A
// graceful shutdown runs the engine until Quiesced holds (after
// CheckpointNow) so the next mount starts from a zero-age checkpoint.
func (m *Manager) Quiesced() bool {
	return !m.ckptBusy && !m.flushing && len(m.ram) == 0
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

// staged accounts for a record just encoded at the end of ram and makes
// sure a flush is on its way.
func (m *Manager) staged() {
	m.appended = m.sys.durableEnd() + uint64(len(m.inflight)+len(m.ram))
	m.kickFlush()
}

func (m *Manager) kickFlush() {
	if m.flushing || len(m.ram) == 0 {
		return
	}
	m.flushing = true
	m.ram, m.inflight = m.inflight[:0], m.ram
	m.eng.After(JournalFlushNs, m.onFlushDone)
}

func (m *Manager) finishFlush() {
	m.sys.journal = append(m.sys.journal, m.inflight...)
	m.inflight = m.inflight[:0]
	m.flushing = false
	m.release()
	m.kickFlush()
}

// wait defers w until everything appended so far is durable, or runs it
// at once if it already is. What w does may append new records or wait
// again.
func (m *Manager) wait(w waiter) {
	w.off = m.appended
	if w.off <= m.durablePoint() {
		m.run(w)
		return
	}
	m.waiters.Push(w)
	m.kickFlush()
}

func (m *Manager) run(w waiter) {
	switch w.kind {
	case waitTrim:
		if m.ledger != nil {
			m.ledger.RecordTrim(w.lpn, w.stamp)
		}
	case waitProceed:
		w.proceed()
	}
}

// release runs every waiter the durable point now covers, oldest first.
// The queue is settled before any of them runs: the due waiters are a
// prefix (offsets are FIFO), each is popped before it runs, and whatever
// a running waiter queues lies past the durable point — otherwise wait
// would have run it on the spot — so it joins behind the prefix and is
// left for a later release.
func (m *Manager) release() {
	d := m.durablePoint()
	for m.waiters.Len() > 0 && m.waiters.Peek().off <= d {
		m.run(m.waiters.Pop())
	}
}

// --- ftl.RecoveryHook ---

// NoteBlockOpened implements ftl.RecoveryHook.
func (m *Manager) NoteBlockOpened(chip, block int, seq uint64) {
	m.ram = appendBlockOpened(m.ram, chip, block, seq)
	m.staged()
}

// NoteMapped implements ftl.RecoveryHook. The write is committed
// already — its page is programmed under a CRC-checked OOB record the
// mount rolls forward from — so the journal has nothing to add: the
// ledger learns it, and the slots' dirty logs, for the next patch.
func (m *Manager) NoteMapped(lpn ftl.LPN, stamp uint64) {
	m.slotLogs[0].note(lpn)
	m.slotLogs[1].note(lpn)
	if m.ledger != nil {
		m.ledger.Record(lpn, stamp)
	}
}

// NoteTrim implements ftl.RecoveryHook. The trim is the one page-level
// fact no page records, so it is journaled, under its write stamp: the
// mount keeps it as a tombstone no older copy on the media can pass.
func (m *Manager) NoteTrim(lpn ftl.LPN, stamp uint64) {
	m.ram = appendTrim(m.ram, lpn, stamp)
	m.staged()
	m.slotLogs[0].note(lpn)
	m.slotLogs[1].note(lpn)
	m.wait(waiter{kind: waitTrim, lpn: lpn, stamp: stamp})
}

// NoteRetired implements ftl.RecoveryHook.
func (m *Manager) NoteRetired(chip, block int) {
	m.ram = appendChipBlock(m.ram, recRetired, chip, block)
	m.staged()
}

// NoteDieDegraded implements ftl.RecoveryHook.
func (m *Manager) NoteDieDegraded(die int) {
	m.ram = appendDieDegraded(m.ram, die)
	m.staged()
}

// BarrierErase implements ftl.RecoveryHook: the erase may only start
// once every record appended so far is durable — the BlockOpened of each
// block the victim's pages were copied into, which sends the mount to
// scan it for the copies, and every trim of a page the checkpoint still
// maps into the victim, which no copy exists to overrule.
func (m *Manager) BarrierErase(chip, block int, proceed func()) {
	m.wait(waiter{kind: waitProceed, proceed: proceed})
}

// NoteErased implements ftl.RecoveryHook: the block returns to the
// free pool only once the Erased record is durable. A block reopened
// before then could take acked writes the mount would never scan for,
// the durable state still calling it a full block of old data.
func (m *Manager) NoteErased(chip, block int, proceed func()) {
	m.ram = appendChipBlock(m.ram, recErased, chip, block)
	m.staged()
	m.wait(waiter{kind: waitProceed, proceed: proceed})
}

// --- checkpoints ---

// armCkptTimer schedules the next periodic checkpoint (CheckpointNow);
// finishCheckpoint arms the one after.
func (m *Manager) armCkptTimer() {
	if m.ckptInterval <= 0 {
		return
	}
	m.eng.After(m.ckptInterval, m.onCkptTimer)
}

// checkpoint writes the controller's state to the older slot, encoding
// it straight into that slot's buffer. The slot is invalidated the
// moment the write begins — which is what makes its bytes free to
// overwrite — so a power cut mid-write tears this slot and recovery
// falls back to the other one. When the buffer holds this manager's own
// last image of the slot, only what changed since is rewritten, and the
// pages stamped since inserted (patchCheckpoint); the bytes are the full
// encode's either way. sync installs immediately (attach-time
// checkpoint); otherwise the install lands after the modeled write
// latency.
func (m *Manager) checkpoint(sync bool) {
	if m.ckptBusy {
		return
	}
	stamp := uint64(1)
	for i := range m.sys.slots {
		if m.sys.slots[i].stamp >= stamp {
			stamp = m.sys.slots[i].stamp + 1
		}
	}
	m.ckpt = pendingCkpt{slot: m.sys.oldestSlot(), stamp: stamp, cutoff: m.appended, start: m.eng.Now()}
	sl := &m.sys.slots[m.ckpt.slot]
	sl.valid = false
	lg := &m.slotLogs[m.ckpt.slot]
	if lg.patchable && ckptMappings(sl.data) <= m.ctrl.StampedPages() {
		m.ckpt.grown = ckptMappings(sl.data) < m.ctrl.StampedPages()
		sl.data = m.enc.patchCheckpoint(sl.data, lg.bodyCRC, m.ctrl, lg.dirty)
		m.ckptPatched++
	} else {
		sl.data = m.enc.appendCheckpoint(sl.data[:0], m.ctrl)
	}
	lg.patchable, lg.dirty, lg.bodyCRC = true, lg.dirty[:0], m.enc.bodyCRC
	if sync {
		m.install()
		return
	}
	m.ckptBusy = true
	m.eng.After(CkptBaseNs+CkptNsPerByte*sim.Time(len(sl.data)), m.onCkptDone)
}

// install makes the checkpoint just written the newest valid one.
func (m *Manager) install() {
	sl := &m.sys.slots[m.ckpt.slot]
	sl.valid, sl.stamp, sl.cutoff, sl.at = true, m.ckpt.stamp, m.ckpt.cutoff, m.ckpt.start
	m.sys.truncate(m.ckpt.cutoff)
	m.ckptBusy = false
	m.release()
}

func (m *Manager) finishCheckpoint() {
	m.install()
	m.armCkptTimer()
}

// CheckpointNow forces a checkpoint write (asynchronous; durable after
// the modeled latency).
func (m *Manager) CheckpointNow() { m.checkpoint(false) }

// --- power cut ---

// Image is what a mount finds after a power cut: the NAND array and the
// system area as the cut left them, and the ledger of the writes and
// trims the device owes back. It shares no mutable state with the run.
type Image struct {
	Array  *nand.Array
	System *SystemArea
	Ledger *Ledger // nil when the manager keeps none
}

// Cut returns the Image a power cut at the current instant leaves, and
// leaves the running device as it is. On the copies every in-flight
// word-line program is torn (unreadable payload, no valid OOB), every
// in-flight erase leaves its block half-erased, the journal keeps its
// durable bytes and half of the batch mid-flush (CRC framing detects the
// tear), and a checkpoint slot being rewritten stays invalid. Buffered
// writes, pending acks and the rest of controller RAM are not in it.
func (m *Manager) Cut() Image {
	sys, dev := *m.sys, m.ctrl.Device()
	sys.cutAt = m.eng.Now()
	sys.journal = append(slices.Clone(m.sys.journal), m.inflight[:len(m.inflight)/2]...)
	for i, sl := range m.sys.slots { // keeps the room the next checkpoint is encoded in
		sys.slots[i].data = append(make([]byte, 0, cap(sl.data)), sl.data...)
	}
	img := Image{Array: dev.Array().Clone(), System: &sys}
	if m.ledger != nil {
		img.Ledger = &Ledger{entries: slices.Clone(m.ledger.entries)}
	}
	for _, op := range dev.InflightMediaOps() {
		chip := img.Array.Die(op.Die)
		switch op.Kind {
		case ssd.MediaProgram:
			chip.CutWordLine(op.Addr)
		case ssd.MediaErase:
			chip.CutErase(op.Block)
		}
	}
	return img
}
