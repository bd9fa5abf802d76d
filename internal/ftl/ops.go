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

// readOutcome does the accounting a host read and a relocation read
// share and reports whether the read must be re-issued (a transient
// fault with attempts left; attempt counts the re-issues so far).
// Otherwise an error is a counted, host-visible uncorrectable one.
func (c *Controller) readOutcome(chip, block, layer int, res nand.ReadResult, err error, attempt int) (reissue bool) {
	if err != nil && errors.Is(err, nand.ErrReadFault) {
		c.stats.ReadFaults++
		if attempt < readFaultRetries {
			return true
		}
	} else if err == nil && attempt > 0 {
		c.stats.FaultRecoveries++
	}
	c.stats.ReadRetries += int64(res.Retries)
	if err != nil {
		c.stats.Uncorrectable++
	}
	c.pol.ObserveRead(chip, block, layer, res, err)
	return false
}

// programmed does the accounting every successful word-line program
// shares: mean tPROG, the whole word line (padding included) on its
// cause's column of the WAF ledger, the die's latency histogram.
func (c *Controller) programmed(chip int, latencyNs int64, wafPages *int64) {
	c.stats.Programs++
	c.stats.ProgramNs += latencyNs
	*wafPages += int64(vth.PagesPerWL)
	if c.hub != nil {
		c.dies[chip].progHist.Add(latencyNs)
	}
}

// hostRead is one host page read.
type hostRead struct {
	c    *Controller
	live bool

	lpn   LPN
	start sim.Time
	pp    *telemetry.PageProbe
	done  func()

	// Mapped reads: the flash location, how often a transient fault made
	// the controller re-issue the read and, in VerifyData mode, the stamp
	// the page was mapped under when the read was issued.
	chip    int
	addr    nand.Address
	params  nand.ReadParams
	attempt int
	stamp   uint64

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
	if c.readOutcome(r.chip, r.addr.Block, r.addr.Layer, res, err, r.attempt) {
		r.attempt++
		c.dev.Read(r.chip, r.addr, r.params, r.pp, r.onFlash)
		return
	}
	if err == nil {
		c.checkReadPayload(r.lpn, r.stamp, res.Data)
	}
	c.maybeReclaim(r.chip, r.addr.Block)
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
// DurableAcks) until a program carrying its page, or a newer version of
// it, completes.
type hostWrite struct {
	c    *Controller
	live bool

	lpn   LPN
	start sim.Time
	done  func()
	pp    *telemetry.PageProbe // while the write waits for buffer space

	// The stamp the page was admitted under and, for a held durable ack
	// (see deferAck), the next held write.
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
	w.done, w.pp = nil, nil
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

	onProgram func(res *nand.ProgramResult, err error)
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

// flushOOB builds the spare-area records for the flush group, or
// returns nil on a controller without DurableAcks, whose media no mount
// reads.
func (f *flushOp) flushOOB(blockSeq uint64) [][]byte {
	if !f.c.cfg.DurableAcks {
		return nil
	}
	for i, h := range f.group {
		f.oob.put(i, h.LPN, h.Stamp, blockSeq)
	}
	return f.oob.padded(len(f.group), blockSeq)
}

func (f *flushOp) programDone(res *nand.ProgramResult, err error) {
	pool.CheckLive(f.live, "ftl flush op")
	c, chip, cursor, block, group := f.c, f.chip, f.cursor, f.block, f.group
	c.dies[chip].inflight--
	c.inflight--
	if errors.Is(err, ssd.ErrDieFenced) {
		// The die degraded while this program waited for its grant:
		// nothing reached the media. Return the data to the buffer so
		// surviving dies can absorb it (or, device-wide, so the
		// rejection is accounted instead of silently lost).
		c.stats.FencedPrograms++
		c.programEnded(chip, cursor)
		c.requeue(chip, "requeue_fenced", &c.stats.RequeueFenced)
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
		c.programEnded(chip, cursor)
		c.requeue(chip, "requeue_program_fail", &c.stats.RequeueProgramFail)
		c.buf.Requeue(group)
		f.release()
		c.retireActive(chip, block)
		c.stats.FaultRecoveries++
		c.checkGC(chip)
		c.maybeFlush()
		return
	}
	c.programmed(chip, res.LatencyNs, &c.stats.HostPages)
	var acked *hostWrite
	tail := &acked
	if c.hub.Tracing() {
		c.hub.Event(telemetry.PidFTL, chip, "flush", f.issueAt, c.eng.Now()-f.issueAt,
			map[string]int64{"pages": int64(len(group)), "block": int64(f.block)})
	}
	verdict := c.pol.ObserveProgram(chip, f.block, f.layer, f.wl, f.params, res)
	c.programEnded(chip, cursor)
	if verdict == VerdictReprogram {
		// §4.1.4: the word line is suspect — leave it unmapped (its pages
		// are garbage) and rewrite the data at the next allocation.
		c.stats.Reprograms++
		c.instant(chip, "requeue_reprogram")
		c.buf.Requeue(group)
		f.release()
	} else {
		// A settled page is on the media under a CRC-checked OOB record the
		// mount rolls forward from: that is the commit point of a held
		// durable ack, and the only record of the mapping there is.
		wlIdx := f.layer*c.geo.WLsPerLayer + f.wl
		for i, h := range group {
			if c.buf.Settle(h) {
				ppn := c.geo.EncodePPN(chip, f.block, wlIdx, i)
				c.mapper.Map(h.LPN, ppn)
				c.setStamp(h.LPN, h.Stamp)
				c.recordMapping(h.LPN, h.Stamp)
				if c.rec != nil {
					c.rec.NoteMapped(h.LPN, h.Stamp)
				}
				tail = c.takeHeldAcks(h.LPN, h.Stamp, tail)
			}
		}
		f.release()
		c.admitPending()
	}
	c.retireIfFull(chip, block)
	c.checkGC(chip)
	c.maybeFlush()
	// Acks may reenter the controller (the host issues its next command
	// synchronously): run them only once this completion is settled.
	runAcks(acked)
}
