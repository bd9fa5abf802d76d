package ftl

import (
	"errors"

	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
)

// The controller's datapath operations are op records, like the
// device's (see internal/ssd/ops.go): one pooled record per in-flight
// host page read, host write acknowledgment, flush program and GC
// relocation batch, with the callbacks it hands to the layer below
// bound once when the record is first built. A record is live from get
// to release; it is released before the completion it delivers, so that
// completion may start the next operation on the same record, and
// stepping a record that is not live panics.

// readFaultRetries is how many times a transient read fault is
// re-issued before the read escalates to a host-visible error.
const readFaultRetries = 2

// retryReadFault does the accounting for one flash read outcome and
// reports whether the read must be re-issued (a transient read fault
// with attempts left). attempt counts the re-issues so far.
func (c *Controller) retryReadFault(err error, attempt int) bool {
	if err != nil && errors.Is(err, nand.ErrReadFault) {
		c.stats.ReadFaults++
		return attempt < readFaultRetries
	}
	if err == nil && attempt > 0 {
		c.stats.FaultRecoveries++
	}
	return false
}

// hostRead is one host page read.
type hostRead struct {
	c    *Controller
	live bool

	lpn   LPN
	start sim.Time
	pp    *telemetry.PageProbe
	done  func()

	// Mapped reads: the flash location, and how often a transient fault
	// made the controller re-issue the read.
	chip, block, layer int
	addr               nand.Address
	params             nand.ReadParams
	attempt            int

	onFinish func()
	onFlash  func(res nand.ReadResult, err error)
}

func (c *Controller) getHostRead() *hostRead {
	r := c.hostReads.Get()
	if r == nil {
		r = &hostRead{c: c}
		r.onFinish, r.onFlash = r.finish, r.flashDone
	}
	r.live = true
	return r
}

// flashDone receives the device's result for a mapped read.
func (r *hostRead) flashDone(res nand.ReadResult, err error) {
	pool.CheckLive(r.live, "ftl host read")
	c := r.c
	if c.retryReadFault(err, r.attempt) {
		r.attempt++
		c.dev.Read(r.chip, r.addr, r.params, r.pp, r.onFlash)
		return
	}
	c.stats.ReadRetries += int64(res.Retries)
	if err != nil {
		// The retry ladder (and any transient-fault re-issues) is
		// exhausted: a counted, host-visible uncorrectable error.
		c.stats.Uncorrectable++
	} else {
		c.checkReadPayload(r.lpn, res.Data)
	}
	c.pol.ObserveRead(r.chip, r.block, r.layer, res, err)
	c.maybeReclaim(r.chip, r.block)
	c.maybeScrub(r.chip)
	r.finish()
}

func (r *hostRead) finish() {
	pool.CheckLive(r.live, "ftl host read")
	c, done := r.c, r.done
	c.stats.ReadLat.Add(c.eng.Now() - r.start)
	r.live = false
	r.pp, r.done = nil, nil
	c.hostReads.Put(r)
	done()
}

// hostWrite carries one host page write from admission to its
// acknowledgment, which may be held back by buffer backpressure or (with
// DurableAcks) by journal durability.
type hostWrite struct {
	c    *Controller
	live bool

	start sim.Time
	done  func()

	// A held durable ack (see deferAck): the page and stamp the ack
	// waits on, and the next held write.
	lpn   LPN
	stamp uint64
	next  *hostWrite

	onAck func()
}

func (c *Controller) getHostWrite() *hostWrite {
	w := c.hostWrites.Get()
	if w == nil {
		w = &hostWrite{c: c}
		w.onAck = w.ack
	}
	w.live = true
	return w
}

func (w *hostWrite) ack() {
	pool.CheckLive(w.live, "ftl host write")
	c, done := w.c, w.done
	c.stats.WriteLat.Add(c.eng.Now() - w.start)
	w.live = false
	w.done = nil
	c.hostWrites.Put(w)
	done()
}

// flushOp is one word-line program of buffered host pages.
type flushOp struct {
	c    *Controller
	live bool

	chip             int
	group            []FlushHandle // backed by groupBuf
	cursor           *BlockCursor
	block, layer, wl int
	params           nand.ProgramParams
	issueAt          sim.Time

	groupBuf [vth.PagesPerWL]FlushHandle
	oob      wlOOB

	onProgram func(res nand.ProgramResult, err error)
}

// wlOOB is a record-owned buffer for one word line's spare-area
// records. The chip copies them at program time, so the buffer is free
// again when the program completes.
type wlOOB struct {
	bytes [vth.PagesPerWL * OOBBytes]byte
	recs  [vth.PagesPerWL][]byte
}

// put encodes the i-th page's record.
func (o *wlOOB) put(i int, lpn LPN, stamp, blockSeq uint64) {
	o.recs[i] = o.bytes[i*OOBBytes : (i+1)*OOBBytes : (i+1)*OOBBytes]
	putOOB(o.recs[i], lpn, stamp, blockSeq)
}

// padded fills the word line's unused slots, from page n on, with
// padding records and returns all of the word line's records.
func (o *wlOOB) padded(n int, blockSeq uint64) [][]byte {
	for i := n; i < len(o.recs); i++ {
		o.put(i, UnmappedLPN, 0, blockSeq)
	}
	return o.recs[:]
}

func (c *Controller) getFlush() *flushOp {
	f := c.flushOps.Get()
	if f == nil {
		f = &flushOp{c: c}
		f.onProgram = f.programDone
	}
	f.live = true
	return f
}

func (f *flushOp) release() {
	f.live = false
	f.group, f.cursor = nil, nil
	f.c.flushOps.Put(f)
}

// flushOOB builds the spare-area records for the flush group.
func (f *flushOp) flushOOB(blockSeq uint64) [][]byte {
	for i, h := range f.group {
		f.oob.put(i, h.LPN, h.Stamp, blockSeq)
	}
	return f.oob.padded(len(f.group), blockSeq)
}

func (f *flushOp) programDone(res nand.ProgramResult, err error) {
	pool.CheckLive(f.live, "ftl flush op")
	c, chip, cursor, group := f.c, f.chip, f.cursor, f.group
	c.inflight[chip]--
	if errors.Is(err, ssd.ErrDieFenced) {
		// The die degraded while this program waited for its grant:
		// nothing reached the media. Return the data to the buffer so
		// surviving dies can absorb it (or, device-wide, so the
		// rejection is accounted instead of silently lost).
		c.stats.FencedPrograms++
		c.requeueInstant(chip, "requeue_fenced", c.reqFenced)
		c.buf.Requeue(group)
		f.release()
		c.maybeFlush()
		return
	}
	if err != nil {
		// Program-status failure: the data is still safe in the
		// buffer. Re-issue it at the next allocation and retire the
		// failed block.
		c.stats.ProgramFailures++
		c.requeueInstant(chip, "requeue_program_fail", c.reqFail)
		c.buf.Requeue(group)
		f.release()
		c.retireActive(chip, cursor)
		c.stats.FaultRecoveries++
		c.checkGC(chip)
		c.maybeFlush()
		return
	}
	c.stats.Programs++
	c.stats.ProgramNs += res.LatencyNs
	// Host-caused write amplification: the word line programs whole,
	// padding included.
	c.stats.HostPages += int64(vth.PagesPerWL)
	if c.hub != nil {
		c.progHists[chip].Add(res.LatencyNs)
		if c.hub.Tracing() {
			c.hub.Event(telemetry.PidFTL, chip, "flush", f.issueAt, c.eng.Now()-f.issueAt,
				map[string]int64{"pages": int64(len(group)), "block": int64(f.block)})
		}
	}

	verdict := c.pol.ObserveProgram(chip, f.block, f.layer, f.wl, f.params, res)
	if verdict == VerdictReprogram {
		// §4.1.4: the word line is suspect — leave it unmapped (its
		// pages are garbage) and rewrite the same data at the next
		// allocation with fresh monitoring.
		c.stats.Reprograms++
		c.requeueInstant(chip, "requeue_reprogram", c.reqReprog)
		c.buf.Requeue(group)
		f.release()
	} else {
		wlIdx := f.layer*c.geo.WLsPerLayer + f.wl
		for i, h := range group {
			if c.buf.Settle(h) {
				ppn := c.geo.EncodePPN(chip, f.block, wlIdx, i)
				c.mapper.Map(h.LPN, ppn)
				c.stamps[h.LPN] = h.Stamp
				c.recordMapping(h.LPN, h.Stamp)
				if c.rec != nil {
					c.rec.NoteMapped(h.LPN, ppn, h.Stamp)
				}
			}
		}
		f.release()
		c.admitPending()
	}
	c.retireIfFull(chip, cursor)
	c.checkGC(chip)
	c.maybeFlush()
}

// relocOp moves one word line's worth of a victim block's live pages:
// it reads them one by one, then programs them into an active block.
// Relocation cycles (GC, reclaim, evacuation, refresh, wear leveling)
// are chains of these batches.
type relocOp struct {
	c    *Controller
	live bool

	chip, victim int
	rest         []LPN // victim pages still to visit after this batch
	n            int   // pages in this batch
	batch        [vth.PagesPerWL]LPN
	data         [vth.PagesPerWL][]byte // payloads read (VerifyData mode)

	// The read in progress.
	i         int
	readLayer int
	addr      nand.Address
	params    nand.ReadParams
	attempt   int

	// The program in progress.
	cursor           *BlockCursor
	block, layer, wl int
	progParams       nand.ProgramParams
	issueAt          sim.Time
	oob              wlOOB

	onRead    func(res nand.ReadResult, err error)
	onProgram func(res nand.ProgramResult, err error)
}

func (c *Controller) getReloc() *relocOp {
	g := c.relocOps.Get()
	if g == nil {
		g = &relocOp{c: c}
		g.onRead, g.onProgram = g.readDone, g.programDone
	}
	g.live = true
	return g
}

func (g *relocOp) release() {
	g.live = false
	g.rest, g.cursor = nil, nil
	g.data = [vth.PagesPerWL][]byte{}
	g.c.relocOps.Put(g)
}

// readNext reads the batch's pages sequentially from page g.i on
// (capturing their payloads in data-integrity mode), then programs
// them.
func (g *relocOp) readNext() {
	c := g.c
	for ; g.i < g.n; g.i++ {
		ppn := c.mapper.Lookup(g.batch[g.i])
		if ppn == ssd.UnmappedPPN {
			// Overwritten mid-batch; the write-back liveness check will
			// skip it too.
			continue
		}
		_, _, layer, wl, page := c.geo.DecodePPN(ppn)
		g.readLayer = layer
		g.params = nand.ReadParams{StartOffset: c.pol.ReadStartOffset(g.chip, g.victim, layer), Mode: c.cfg.RetryMode}
		g.addr = nand.Address{Block: g.victim, Layer: layer, WL: wl, Page: page}
		g.attempt = 0
		c.dev.Read(g.chip, g.addr, g.params, nil, g.onRead)
		return
	}
	g.write()
}

func (g *relocOp) readDone(res nand.ReadResult, err error) {
	pool.CheckLive(g.live, "ftl relocation batch")
	c := g.c
	if c.retryReadFault(err, g.attempt) {
		g.attempt++
		c.dev.Read(g.chip, g.addr, g.params, nil, g.onRead)
		return
	}
	c.stats.ReadRetries += int64(res.Retries)
	c.pol.ObserveRead(g.chip, g.victim, g.readLayer, res, err)
	if err != nil {
		c.stats.Uncorrectable++
	}
	g.data[g.i] = res.Data
	g.i++
	g.readNext()
}

// gcPages assembles the relocated payloads for one word-line program.
func (g *relocOp) gcPages() [][]byte {
	if g.c.verify == nil {
		return nil
	}
	pages := make([][]byte, vth.PagesPerWL)
	for i := range pages {
		if i < g.n && g.data[i] != nil {
			pages[i] = g.data[i]
		} else {
			pages[i] = MakePageTag(UnmappedLPN, 0)
		}
	}
	return pages
}

// gcOOB builds the spare-area records for the batch's word line: each
// copy keeps its data's original write stamp.
func (g *relocOp) gcOOB(blockSeq uint64) [][]byte {
	for i, l := range g.batch[:g.n] {
		g.oob.put(i, l, g.c.stamps[l], blockSeq)
	}
	return g.oob.padded(g.n, blockSeq)
}

// write programs one word line of relocated pages.
func (g *relocOp) write() {
	c, chip := g.c, g.chip
	cursor, layer, wl, err := c.allocateWL(chip)
	if err != nil {
		// The die cannot accept relocations anymore. The batch's pages
		// are still live and readable at the victim — nothing is lost —
		// but this collection cycle cannot finish.
		g.release()
		c.setGCActive(chip, false)
		c.checkDieDegraded(chip)
		return
	}
	cursor.Take(layer, wl)
	g.cursor, g.block, g.layer, g.wl = cursor, cursor.Block, layer, wl
	g.progParams = c.pol.ProgramParams(chip, g.block, layer, wl)
	addr := nand.Address{Block: g.block, Layer: layer, WL: wl}
	g.issueAt = c.eng.Now()
	c.dev.Program(chip, addr, g.gcPages(), g.gcOOB(cursor.Seq), g.progParams, g.onProgram)
}

func (g *relocOp) programDone(res nand.ProgramResult, err error) {
	pool.CheckLive(g.live, "ftl relocation batch")
	c, chip, victim, cursor := g.c, g.chip, g.victim, g.cursor
	if errors.Is(err, ssd.ErrDieFenced) {
		// Defensive: a fence cannot normally race an active GC cycle
		// (gcActive blocks degrading the die), but if it ever does the
		// victim's copies are still intact — just end the cycle.
		c.stats.FencedPrograms++
		g.release()
		c.setGCActive(chip, false)
		return
	}
	if err != nil {
		// GC program failed: retire the destination and retry the same
		// batch on a fresh word line (the source copies are still
		// intact on the victim).
		c.stats.ProgramFailures++
		c.retireActive(chip, cursor)
		c.stats.FaultRecoveries++
		g.write()
		return
	}
	c.stats.Programs++
	c.stats.ProgramNs += res.LatencyNs
	// Relocation write amplification, attributed to the cycle's cause.
	switch c.relocCause[chip] {
	case causeRefresh:
		c.stats.RefreshPages += int64(vth.PagesPerWL)
	case causeWL:
		c.stats.WLPages += int64(vth.PagesPerWL)
	default:
		c.stats.GCPages += int64(vth.PagesPerWL)
	}
	if c.hub != nil {
		c.progHists[chip].Add(res.LatencyNs)
		if c.hub.Tracing() {
			c.hub.Event(telemetry.PidFTL, chip, "gc_write", g.issueAt, c.eng.Now()-g.issueAt,
				map[string]int64{"pages": int64(g.n), "victim": int64(victim)})
		}
	}
	verdict := c.pol.ObserveProgram(chip, g.block, g.layer, g.wl, g.progParams, res)
	if verdict == VerdictReprogram {
		c.stats.Reprograms++
		c.requeueInstant(chip, "requeue_reprogram", c.reqReprog)
		c.retireIfFull(chip, cursor)
		// Retry the same batch on the next word line.
		g.write()
		return
	}
	wlIdx := g.layer*c.geo.WLsPerLayer + g.wl
	moved := 0
	for i, l := range g.batch[:g.n] {
		// Re-check liveness: the host may have overwritten it while the
		// program was in flight.
		ppn := c.mapper.Lookup(l)
		if ppn != ssd.UnmappedPPN {
			vc, vb, _, _, _ := c.geo.DecodePPN(ppn)
			if vc == chip && vb == victim {
				dst := c.geo.EncodePPN(chip, g.block, wlIdx, i)
				c.mapper.Map(l, dst)
				moved++
				if c.rec != nil {
					// The relocated copy keeps its data's stamp; the
					// destination block's younger sequence breaks the tie
					// against the source copy on recovery.
					c.rec.NoteMapped(l, dst, c.stamps[l])
				}
			}
		}
	}
	c.stats.GCPageMoves += int64(moved)
	c.retireIfFull(chip, cursor)
	rest := g.rest
	g.release()
	c.relocate(chip, victim, rest)
}
