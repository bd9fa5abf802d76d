package ftl

import (
	"fmt"
	"slices"

	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
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
			pp.BufferNs += BufferReadNs
		}
		c.eng.After(BufferReadNs, r.onFinish)
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
			pp.BufferNs += BufferReadNs
		}
		if c.cfg.DurableAcks && c.rec != nil {
			// Hold the ack until the page is programmed (released by
			// flushOp.programDone).
			c.deferAck(w)
		} else {
			c.eng.After(BufferReadNs, w.onAck) // DMA into buffer
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
		c.eng.After(BufferReadNs, c.onEarlyFlush)
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

// pickChip round-robins over the dies whose outlook is takes,
// dispatching to idle dies first so a flush burst spreads across the
// array before any die queues a second operation. A die's last free
// block is never a host's, so in-progress garbage collection always has
// a block to write into.
func (c *Controller) pickChip() (int, bool) {
	n, busy := c.geo.Chips, -1
	// Every die at the in-flight cap: no outlook can be takes.
	if c.inflight == n*c.cfg.MaxInflightProgramsPerChip {
		return 0, false
	}
	// One scan: the first eligible idle die wins; failing that, the
	// first eligible one.
	for i := 0; i < n; i++ {
		die := (c.flushChip + i) % n
		if c.outlook(die) != takes {
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
// Only maybeFlush's hold and earlyFlushFired arm it (make one-relocator).
func (c *Controller) armFlushTimer() {
	if c.timerArmed || c.degraded {
		return
	}
	c.timerArmed = true
	c.eng.After(FlushTimeoutNs, c.onFlushTimer)
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
// event decided it should. It reports whether a die took the group. If
// none does, every die is settled: then the device is degraded, or a die
// waits on a completion that runs maybeFlush again. Nothing polls.
func (c *Controller) flushPartial() bool {
	if c.degraded || c.buf.Flushable() == 0 {
		return false
	}
	chip, ok := c.pickChip()
	if !ok {
		for die := range c.dies {
			c.settle(die)
		}
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
		c.requeue(chip, "requeue_alloc_fail", &c.stats.RequeueAllocFail)
		c.buf.Requeue(f.group)
		f.release()
		c.settle(chip)
		return
	}
	cursor.Take(layer, wl)
	cursor.programs++
	f.chip, f.cursor, f.block, f.layer, f.wl = chip, cursor, cursor.Block, layer, wl
	f.params = c.pol.ProgramParams(chip, f.block, layer, wl)
	addr := nand.Address{Block: f.block, Layer: layer, WL: wl}
	c.dies[chip].inflight++
	c.inflight++
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
		if len(d.actives) == 0 && !d.degraded {
			c.armWritePoints(chip) // every write point went while the pool was empty
		}
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
	if c.cfg.WearLevel {
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
	cur := c.openCursor(chip, b)
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
	c.setRole(chip, d.actives[i].Block, roleData)
	c.closeWritePoint(chip, d.actives[i])
	if fresh, ok := c.takeFreeBlock(chip); ok {
		d.actives[i] = fresh
		return true
	}
	d.actives = slices.Delete(d.actives, i, i+1)
	return false
}

// closeWritePoint retires a write point that is leaving the die's
// actives with the policy and releases its cursor, or, while a program
// into it is still in flight, holds it in die.closing until the last
// one has completed (programEnded).
func (c *Controller) closeWritePoint(chip int, cur *BlockCursor) {
	if cur.programs > 0 {
		c.dies[chip].closing = append(c.dies[chip].closing, cur)
		return
	}
	c.pol.BlockRetired(chip, cur.Block)
	c.releaseCursor(cur)
}

// programEnded retires a completed program, host or relocation (or one
// refused or failed), from its block's count, once the policy has
// observed it: a former write point whose last program this was leaves
// die.closing, is retired with the policy, and its cursor is released —
// so the caller names the block, not the cursor, from here on.
func (c *Controller) programEnded(chip int, cur *BlockCursor) {
	pool.CheckLive(cur.live, "ftl block cursor")
	if cur.programs--; cur.programs > 0 {
		return
	}
	d := &c.dies[chip]
	if i := slices.Index(d.closing, cur); i >= 0 {
		d.closing = slices.Delete(d.closing, i, i+1)
		c.pol.BlockRetired(chip, cur.Block)
		c.releaseCursor(cur)
	}
}

// openCursor returns a cursor over an erased block, a released one when
// there is one.
func (c *Controller) openCursor(chip, block int) *BlockCursor {
	if cur := c.cursors.Get(); cur != nil {
		cur.reset(chip, block)
		return cur
	}
	return NewBlockCursor(chip, block, c.geo.Layers, c.geo.WLsPerLayer)
}

// releaseCursor recycles a cursor nothing refers to any more: its block
// has left the write points and no program into it is in flight.
func (c *Controller) releaseCursor(cur *BlockCursor) {
	cur.live = false
	c.cursors.Put(cur)
}

// activeIndex returns the position of the block among the die's write
// points, or -1.
func (c *Controller) activeIndex(chip, block int) int {
	for i, cur := range c.dies[chip].actives {
		if cur.Block == block {
			return i
		}
	}
	return -1
}

// retireIfFull replaces a write point whose block just filled.
func (c *Controller) retireIfFull(chip, block int) {
	d := &c.dies[chip]
	if i := c.activeIndex(chip, block); i >= 0 && d.actives[i].Full() && !c.replaceWritePoint(chip, i) {
		c.settle(chip)
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
