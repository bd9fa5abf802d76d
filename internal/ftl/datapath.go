package ftl

import (
	"fmt"
	"slices"

	"cubeftl/internal/nand"
	"cubeftl/internal/ssd"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
)

// Read serves a host page read; done runs at completion in simulated
// time. pp, when non-nil, is a latency-attribution probe (behavior and
// timing are identical either way): buffer hits and unmapped reads
// charge the buffer stage; mapped reads charge plane wait, sense,
// retries, and channel stages at the device.
func (c *Controller) Read(lpn LPN, pp *telemetry.PageProbe, done func()) {
	c.stats.HostReads++
	r := c.getHostRead()
	r.start, r.done = c.eng.Now(), done
	ppn := ssd.UnmappedPPN
	if c.buf.Contains(lpn) {
		c.stats.BufferHits++
	} else if ppn = c.mapper.Lookup(lpn); ppn == ssd.UnmappedPPN {
		c.stats.UnmappedReads++
	}
	if ppn == ssd.UnmappedPPN {
		if pp != nil {
			pp.Buffered = true
			pp.BufferNs += c.cfg.BufferReadNs
		}
		c.eng.After(c.cfg.BufferReadNs, r.onFinish)
		return
	}
	chip, block, layer, wl, page := c.geo.DecodePPN(ppn)
	r.lpn, r.pp, r.chip, r.attempt = lpn, pp, chip, 0
	if c.expectedStamp != nil {
		r.stamp = c.expectedStamp[lpn]
	}
	r.params = nand.ReadParams{StartOffset: c.pol.ReadStartOffset(chip, block, layer), Mode: c.cfg.RetryMode}
	r.addr = nand.Address{Block: block, Layer: layer, WL: wl, Page: page}
	c.dev.Read(chip, r.addr, r.params, pp, r.onFlash)
}

// Write serves a host page write; done runs when the write is
// acknowledged: admitted to the buffer, or with DurableAcks programmed.
// Backpressure from a full buffer delays the acknowledgment. A write is
// rejected synchronously (done never runs) with ErrBadLPN outside the
// logical capacity or ErrDegraded once the device has dropped to
// read-only mode.
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
	w.lpn, w.start, w.done = lpn, c.eng.Now(), done
	if c.admit(w) {
		if pp != nil {
			pp.Buffered = true
			pp.BufferNs += c.cfg.BufferReadNs
		}
		if c.cfg.DurableAcks && c.rec != nil {
			// Hold the ack until the page is programmed (released by
			// flushOp.programDone).
			c.deferAck(w)
		} else {
			c.eng.After(c.cfg.BufferReadNs, w.onAck) // DMA into buffer
		}
	} else {
		w.pp = pp
		c.pendingWrites.Push(w)
	}
	c.maybeFlush()
	return nil
}

// admit puts w's page into the buffer under the next write stamp, or
// reports that the buffer has no room for it.
func (c *Controller) admit(w *hostWrite) bool {
	if !c.buf.Put(w.lpn, c.writeStamp+1) {
		return false
	}
	c.writeStamp++
	w.stamp = c.writeStamp
	return true
}

// admitPending moves waiting host writes into freed buffer slots.
func (c *Controller) admitPending() {
	for c.pendingWrites.Len() > 0 && c.admit(c.pendingWrites.Peek()) {
		w := c.pendingWrites.Pop()
		if w.pp != nil {
			w.pp.Buffered = true
			w.pp.AdmitWaitNs += c.eng.Now() - w.start
		}
		if c.cfg.DurableAcks && c.rec != nil {
			c.deferAck(w)
		} else {
			w.ack()
		}
	}
}

// maybeFlush issues word-line programs while buffered pages and chip
// slots are available. What is left over — less than a word line —
// follows Nagle's rule: with every host blocked on the device and either
// no program in flight or the host's promise that nothing new is coming
// it goes out at once (groupCannotGrow), padded; otherwise it is held
// for more pages, until the next completion calls here again or, at the
// latest, the flush timer.
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
	if c.buf.Flushable() == 0 {
		return
	}
	if !c.groupCannotGrow() {
		c.armFlushTimer()
	} else if !c.earlyArmed {
		// After the DMA time, not now: the writes a host submits at one
		// instant share one word line and one pad.
		c.earlyArmed = true
		c.eng.After(c.cfg.BufferReadNs, c.onEarlyFlush)
	}
}

// groupCannotGrow reports that holding a partial group can buy no
// coalescing: acks are durable, so every buffered page has a host
// blocked on its program; none of those hosts is waiting for buffer
// space, so none of them will send the pages that would fill the group;
// and either the host has promised to submit nothing new while it drains
// (SetDrainPromise), or no host program is in flight whose completion
// would re-run maybeFlush, which is what carries a page that arrives
// mid-program (the group size follows arrival rate x tPROG, and a
// saturated array never takes this path).
func (c *Controller) groupCannotGrow() bool {
	return c.cfg.DurableAcks && c.rec != nil && c.pendingAckCount > 0 &&
		c.pendingWrites.Len() == 0 && (c.drainPromise || !c.hostProgramInFlight())
}

// SetDrainPromise records whether the host promises to submit no new
// command until it withdraws the promise: FrontEnd.Pump makes it for a
// full drain, FrontEnd.Submit withdraws it. While it holds, a partial
// group of durable writes cannot grow, so it leaves one DMA time after
// admission instead of waiting for the program in flight or the timer.
func (c *Controller) SetDrainPromise(on bool) {
	c.drainPromise = on
	if on {
		c.maybeFlush() // a group already held behind a program may go now
	}
}

// pickChip round-robins over dies with an open program slot, dispatching
// to idle dies first so a flush burst spreads across the array before
// any die queues a second operation. Degraded dies and dies whose
// free-block pool is critically low are skipped for host flushes so
// in-progress garbage collection always has blocks to write into.
func (c *Controller) pickChip() (int, bool) {
	// One scan: the first eligible die with nothing queued or running on
	// its planes wins; failing that, the first eligible one.
	n, busy := c.geo.Chips, -1
	for i := 0; i < n; i++ {
		die := (c.flushChip + i) % n
		d := &c.dies[die]
		if d.degraded || d.inflight >= c.cfg.MaxInflightProgramsPerChip || len(d.free) <= 1 {
			continue
		}
		if !c.dev.Die(die).Busy() {
			c.flushChip = (die + 1) % n
			return die, true
		}
		if busy < 0 {
			busy = die
		}
	}
	if busy < 0 {
		return 0, false
	}
	c.flushChip = (busy + 1) % n
	return busy, true
}

// armFlushTimer schedules a partial flush so trickle writes complete.
func (c *Controller) armFlushTimer() {
	if c.timerArmed || c.degraded {
		return
	}
	c.timerArmed = true
	c.eng.After(c.cfg.FlushTimeoutNs, c.onFlushTimer)
}

func (c *Controller) flushTimerFired() {
	c.timerArmed = false
	c.flushPartial()
}

// earlyFlushFired is the flush maybeFlush scheduled ahead of the timer.
// If the array stopped being idle in the meantime the group rides the
// program now in flight (or the timer) after all.
func (c *Controller) earlyFlushFired() {
	c.earlyArmed = false
	if c.buf.Flushable() > 0 && !c.groupCannotGrow() {
		c.armFlushTimer()
		return
	}
	if c.flushPartial() {
		c.stats.EarlyFlushes++
	}
}

// flushPartial pads what is left in the flush queue to a word line and
// programs it: the one way a partial group leaves the buffer, whichever
// event decided it should. It reports whether a die took the group.
func (c *Controller) flushPartial() bool {
	if c.degraded || c.buf.Flushable() == 0 {
		return false
	}
	chip, ok := c.pickChip()
	if !ok {
		// No chip can take the flush right now. Re-arm unless the
		// device as a whole has lost the ability to make progress.
		c.checkDegraded()
		c.armFlushTimer()
		return false
	}
	f := c.takeFlushGroup()
	c.stats.Padded += int64(vth.PagesPerWL - len(f.group))
	c.flushTo(chip, f)
	return true
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
	cursor.hostPrograms++
	f.chip, f.cursor, f.block, f.layer, f.wl = chip, cursor, cursor.Block, layer, wl
	f.params = c.pol.ProgramParams(chip, f.block, layer, wl)
	addr := nand.Address{Block: f.block, Layer: layer, WL: wl}
	c.dies[chip].inflight++
	f.issueAt = c.eng.Now()
	c.dev.Program(chip, addr, c.hostPages(f.group), f.flushOOB(cursor.Seq), f.params, f.onProgram)
}

// allocateWL asks the policy for a word line, rotating full active
// blocks out for fresh ones as needed. It fails with ErrOutOfSpace when
// the chip's free pool cannot back another write point, or with
// ErrAllocFailed if the policy cannot place a word line on non-full
// actives (a policy bug, surfaced instead of crashed on).
func (c *Controller) allocateWL(chip int) (cursor *BlockCursor, layer, wl int, err error) {
	d := &c.dies[chip]
	for attempt := 0; attempt < 2; attempt++ {
		if len(d.actives) == 0 {
			return nil, 0, 0, fmt.Errorf("%w: chip %d", ErrOutOfSpace, chip)
		}
		idx, l, w, ok := c.pol.SelectWL(chip, d.actives, c.buf.Utilization())
		if ok {
			return d.actives[idx], l, w, nil
		}
		// Every active block is full: replace them all and retry.
		for i := len(d.actives) - 1; i >= 0; i-- {
			if d.actives[i].Full() {
				c.replaceWritePoint(chip, i)
			}
		}
	}
	return nil, 0, 0, fmt.Errorf("%w: %s on chip %d", ErrAllocFailed, c.pol.Name(), chip)
}

// pushFree appends an erased block to its die's free list.
func (c *Controller) pushFree(chip, block int) {
	c.dies[chip].free = append(c.dies[chip].free, block)
	c.setRole(chip, block, roleFree)
}

// takeFreeBlock opens an erased block from the die's pool as a write
// point, or reports ok=false when the pool is exhausted.
func (c *Controller) takeFreeBlock(chip int) (*BlockCursor, bool) {
	d := &c.dies[chip]
	if len(d.free) == 0 {
		return nil, false
	}
	idx := len(d.free) - 1
	if c.cfg.WearAware {
		nand := c.dev.Die(chip).NAND
		best := nand.PECycles(d.free[idx])
		for i, b := range d.free[:idx] {
			if pe := nand.PECycles(b); pe < best {
				best, idx = pe, i
			}
		}
	}
	b := d.free[idx]
	d.free = slices.Delete(d.free, idx, idx+1)
	c.setRole(chip, b, roleOpen)
	// Not recycled: in-flight programs keep the pointer after the block closes.
	cur := NewBlockCursor(chip, b, c.geo.Layers, c.geo.WLsPerLayer)
	c.blockSeq++
	cur.Seq = c.blockSeq
	if c.rec != nil {
		c.rec.NoteBlockOpened(chip, b, cur.Seq)
	}
	return cur, true
}

// armWritePoints tops a chip's open write points up to the policy's
// count from its free pool. A pathologically bad chip runs with fewer.
func (c *Controller) armWritePoints(chip int) {
	d := &c.dies[chip]
	for want := max(c.pol.ActiveBlocksPerChip(), 1); len(d.actives) < want; {
		cur, ok := c.takeFreeBlock(chip)
		if !ok {
			return
		}
		d.actives = append(d.actives, cur)
	}
}

// replaceWritePoint closes the die's i-th write point — full, or failed
// — and opens a fresh block in its slot. With the free pool empty the
// slot goes instead and the die runs with one write point fewer, which
// is what it reports.
func (c *Controller) replaceWritePoint(chip, i int) (backfilled bool) {
	d := &c.dies[chip]
	c.closeWritePoint(chip, d.actives[i])
	old := d.actives[i].Block
	c.pol.BlockRetired(chip, old)
	c.setRole(chip, old, roleData)
	if fresh, ok := c.takeFreeBlock(chip); ok {
		d.actives[i] = fresh
		return true
	}
	d.actives = slices.Delete(d.actives, i, i+1)
	return false
}

// closeWritePoint keeps a write point that is leaving the die's actives
// in die.closing while a host program into it is still in flight.
func (c *Controller) closeWritePoint(chip int, cur *BlockCursor) {
	if cur.hostPrograms > 0 {
		c.dies[chip].closing = append(c.dies[chip].closing, cur)
	}
}

// hostProgramDone retires a completed host program (or one refused or
// failed) from its die's and its block's counts; a former write point
// leaves die.closing with its last one.
func (c *Controller) hostProgramDone(chip int, cur *BlockCursor) {
	d := &c.dies[chip]
	d.inflight--
	if cur.hostPrograms--; cur.hostPrograms == 0 {
		if i := slices.Index(d.closing, cur); i >= 0 {
			d.closing = slices.Delete(d.closing, i, i+1)
		}
	}
}

// retireIfFull replaces a write point whose block just filled.
func (c *Controller) retireIfFull(chip int, cursor *BlockCursor) {
	if !cursor.Full() {
		return
	}
	if i := slices.Index(c.dies[chip].actives, cursor); i >= 0 && !c.replaceWritePoint(chip, i) {
		c.checkDieDegraded(chip)
	}
}

// deferAck holds w's ack until takeHeldAcks covers its page and stamp.
// Stamps are issued in admission order, so appending keeps the chain
// sorted by stamp.
func (c *Controller) deferAck(w *hostWrite) {
	if c.heldAcksTail == nil {
		c.heldAcks = w
	} else {
		c.heldAcksTail.next = w
	}
	c.heldAcksTail = w
	c.pendingAckCount++
}

// takeHeldAcks unlinks every held ack for lpn whose stamp is <= stamp —
// the page just settled on the media under that stamp — and appends it
// to the detached chain whose open end is tail, returning the new open
// end; the caller runs the chain (runAcks) once its own state is
// settled. Older writes coalesced in the buffer are covered by the newer
// data (host write order is preserved per LPN). The chain is sorted by
// stamp and groups leave the buffer in admission order, so the walk
// ends within the few writes still held from before this one.
func (c *Controller) takeHeldAcks(lpn LPN, stamp uint64, tail **hostWrite) **hostWrite {
	var prev *hostWrite
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
	return tail
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
