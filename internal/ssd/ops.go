package ssd

import (
	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
)

// The device's three operations are driven by op records: one record
// carries one in-flight read, program or erase from issue to completion
// and is then returned to the device's free list. Each stage of an
// operation is a method of its record, and the method values handed to
// the engine and the resources (op.onGrant = op.granted, ...) are bound
// once, when the record is first built — binding a method value
// allocates, calling a bound one does not. A record makes exactly the
// Acquire / After calls the closure chain it replaces made, in the same
// order, so the event sequence of a run is unchanged.
//
// A record is live from get to put. Completing an operation releases
// the record before the caller's callback runs, so the callback may
// issue the next operation on the same record; stepping a record that
// is not live is a bug and panics.

// readOp is one timed page read: plane wait, sense (with any retries),
// channel wait, transfer.
type readOp struct {
	d    *Device
	live bool

	die    int
	dh     *DieHandle
	plane  *sim.Resource
	addr   nand.Address
	params nand.ReadParams
	pp     *telemetry.PageProbe
	done   func(res nand.ReadResult, err error)

	reqAt, senseAt, xferReq sim.Time
	res                     nand.ReadResult
	err                     error

	onGrant, onSensed, onBus, onXfer func()
}

func (d *Device) getRead() *readOp {
	op := d.readOps.Get()
	if op == nil {
		op = &readOp{d: d}
		op.onGrant, op.onSensed, op.onBus, op.onXfer = op.granted, op.sensed, op.busGranted, op.transferred
	}
	op.live = true
	return op
}

// finish releases the record, then reports the result.
func (op *readOp) finish() {
	done, res, err := op.done, op.res, op.err
	op.live = false
	op.dh, op.plane, op.pp, op.done = nil, nil, nil, nil
	op.res, op.err = nand.ReadResult{}, nil
	op.d.readOps.Put(op)
	done(res, err)
}

// Read performs a timed page read: the die is held for the sense (and
// any retries), then the channel for the data transfer. done receives
// the NAND result; on an uncorrectable page err is non-nil and the
// latency in res still reflects the time spent. Reads work on fenced
// (read-only) dies.
//
// When pp is non-nil it accumulates where the read's time went: plane
// wait, the first-attempt sense, retry senses, channel wait, and
// transfer. A read re-issued after a transient fault charges the whole
// repeat sense to the retry component. The event sequence is identical
// with and without a probe.
func (d *Device) Read(die int, a nand.Address, p nand.ReadParams, pp *telemetry.PageProbe, done func(res nand.ReadResult, err error)) {
	op := d.getRead()
	op.die, op.dh = die, d.dies[die]
	op.plane = op.dh.plane
	op.addr, op.params, op.pp, op.done = a, p, pp, done
	op.reqAt = d.eng.Now()
	op.plane.Acquire(op.onGrant)
}

func (op *readOp) granted() {
	pool.CheckLive(op.live, "ssd read op")
	d := op.d
	op.senseAt = d.eng.Now()
	op.res, op.err = op.dh.NAND.ReadPage(op.addr, op.params)
	if pp := op.pp; pp != nil {
		pp.Die = op.die
		pp.PlaneWaitNs += op.senseAt - op.reqAt
		pp.Retries += op.res.Retries
		if pp.NANDNs == 0 {
			pp.NANDNs = op.res.LatencyNs - op.res.RetryNs
			pp.RetryNs += op.res.RetryNs
		} else {
			// A transient-fault re-issue: the whole repeat sense is
			// recovery time, not first-attempt service.
			pp.RetryNs += op.res.LatencyNs
		}
	}
	d.eng.After(op.res.LatencyNs, op.onSensed)
}

func (op *readOp) sensed() {
	pool.CheckLive(op.live, "ssd read op")
	d := op.d
	op.plane.Release()
	if d.hub.TraceOp() {
		var args map[string]int64
		if op.res.Retries > 0 {
			args = map[string]int64{"retries": int64(op.res.Retries)}
		}
		d.hub.Event(telemetry.PidNAND, op.die, "tREAD", op.senseAt, op.res.LatencyNs, args)
	}
	if op.err != nil {
		op.finish()
		return
	}
	op.xferReq = d.eng.Now()
	op.dh.channel.Acquire(op.onBus)
}

func (op *readOp) busGranted() {
	pool.CheckLive(op.live, "ssd read op")
	if pp := op.pp; pp != nil {
		pp.BusWaitNs += op.d.eng.Now() - op.xferReq
		pp.BusXferNs += vth.TXferPageNs
	}
	op.d.eng.After(vth.TXferPageNs, op.onXfer)
}

func (op *readOp) transferred() {
	pool.CheckLive(op.live, "ssd read op")
	op.dh.channel.Release()
	op.finish()
}

// segHold occupies an already-acquired die for a total time in a number
// of segments, releasing and re-acquiring between segments so queued
// operations (reads, in particular) can interleave — the suspend-resume
// point. The NAND state mutation has already happened at acquisition,
// preserving FIFO ordering of operations against the die. It is the
// tail of both the program and the erase record.
type segHold struct {
	eng      *sim.Engine
	res      *sim.Resource
	seg, rem int64 // the last segment absorbs rounding
	segments int
	i        int
	then     func() // the owner's completion step

	onSegEnd, onResume func()
}

func (h *segHold) bind(eng *sim.Engine, then func()) {
	h.eng, h.then = eng, then
	h.onSegEnd, h.onResume = h.segEnd, h.step
}

func (h *segHold) start(res *sim.Resource, total int64, segments int) {
	if segments < 1 {
		segments = 1
	}
	h.res, h.segments, h.i = res, segments, 0
	h.seg = total / int64(segments)
	h.rem = total - h.seg*int64(segments-1)
	h.step()
}

func (h *segHold) step() {
	h.i++
	dur := h.seg
	if h.i == h.segments {
		dur = h.rem
	}
	h.eng.After(dur, h.onSegEnd)
}

func (h *segHold) segEnd() {
	res := h.res
	res.Release()
	if h.i >= h.segments {
		h.res = nil
		h.then()
		return
	}
	res.Acquire(h.onResume)
}

// programOp is one timed word-line program: channel hold for the page
// transfers, plane wait, then the (possibly segmented) ISPP hold.
type programOp struct {
	d    *Device
	live bool

	die        int
	dh         *DieHandle
	plane      *sim.Resource
	addr       nand.Address
	pages, oob [][]byte
	params     nand.ProgramParams
	done       func(res *nand.ProgramResult, err error)

	res   nand.ProgramResult
	err   error
	media mediaLink // on the device's in-flight list while the ISPP window is open
	hold  segHold

	onFenced, onChannel, onXfer, onPlane, onFailed func()
}

func (d *Device) getProgram() *programOp {
	op := d.programOps.Get()
	if op == nil {
		op = &programOp{d: d}
		op.onFenced, op.onChannel, op.onXfer = op.finish, op.channelGranted, op.transferred
		op.onPlane, op.onFailed = op.planeGranted, op.failed
		op.hold.bind(d.eng, op.programmed)
	}
	op.live = true
	return op
}

// finish hands the record's own result to the completion, which must
// not keep the pointer, then releases the record: a program the
// completion issues takes another one.
func (op *programOp) finish() {
	pool.CheckLive(op.live, "ssd program op")
	op.done(&op.res, op.err)
	op.live = false
	op.dh, op.plane, op.pages, op.oob, op.done = nil, nil, nil, nil, nil
	op.res, op.err = nand.ProgramResult{}, nil
	op.d.programOps.Put(op)
}

// Program performs a timed one-shot word-line program: the channel is
// held for the three page transfers, then the die for the ISPP
// operation. With SuspendOps the die is held one ISPP loop at a time,
// so queued reads interleave between loops (program suspend-resume).
// oob, when non-nil, is the per-page out-of-band metadata stored in the
// word line's spare area (see nand.Chip.ProgramWLOOB).
// A fenced die completes the program with ErrDieFenced at grant time —
// before any NAND state mutates — so grants queued behind the fence
// transition cannot write a read-only die.
func (d *Device) Program(die int, a nand.Address, pages, oob [][]byte, p nand.ProgramParams, done func(res *nand.ProgramResult, err error)) {
	op := d.getProgram()
	op.die, op.dh = die, d.dies[die]
	op.addr, op.pages, op.oob, op.params, op.done = a, pages, oob, p, done
	if op.dh.fenced {
		// Fast-fail before burning channel time on the transfers.
		op.err = ErrDieFenced
		d.eng.After(0, op.onFenced)
		return
	}
	op.plane = op.dh.plane
	op.dh.channel.Acquire(op.onChannel)
}

func (op *programOp) channelGranted() {
	pool.CheckLive(op.live, "ssd program op")
	op.d.eng.After(int64(vth.PagesPerWL)*vth.TXferPageNs, op.onXfer)
}

func (op *programOp) transferred() {
	pool.CheckLive(op.live, "ssd program op")
	op.dh.channel.Release()
	op.plane.Acquire(op.onPlane)
}

func (op *programOp) planeGranted() {
	pool.CheckLive(op.live, "ssd program op")
	d := op.d
	if op.dh.fenced {
		// The fence went up while this program waited for its grant:
		// refuse it before touching NAND state.
		op.plane.Release()
		op.err = ErrDieFenced
		op.finish()
		return
	}
	op.err = op.dh.NAND.ProgramWLOOB(op.addr, op.pages, op.oob, op.params, &op.res)
	if op.res.LatencyNs > 0 && d.hub.TraceOp() {
		d.hub.Event(telemetry.PidNAND, op.die, "tPROG", d.eng.Now(), op.res.LatencyNs,
			map[string]int64{"block": int64(op.addr.Block), "loops": int64(op.res.Loops)})
	}
	if op.err != nil {
		// A program-status failure is only discovered after the full
		// ISPP sequence: charge its time before completing. Validation
		// rejections (bad address, bad block) carry no latency and
		// complete immediately.
		d.eng.After(op.res.LatencyNs, op.onFailed)
		return
	}
	// The NAND mutation is committed but the ISPP latency window is
	// still open: a power cut before the completion callback leaves
	// this word line partially programmed.
	d.track(&op.media, MediaOp{Kind: MediaProgram, Die: op.die, Addr: op.addr})
	segments := 1
	if d.cfg.SuspendOps && op.res.Loops > 1 {
		segments = op.res.Loops
	}
	op.hold.start(op.plane, op.res.LatencyNs, segments)
}

func (op *programOp) failed() {
	pool.CheckLive(op.live, "ssd program op")
	op.plane.Release()
	op.finish()
}

func (op *programOp) programmed() {
	pool.CheckLive(op.live, "ssd program op")
	op.d.untrack(&op.media)
	op.finish()
}

// eraseOp is one timed block erase.
type eraseOp struct {
	d    *Device
	live bool

	die, block int
	dh         *DieHandle
	plane      *sim.Resource
	done       func(res nand.EraseResult, err error)

	res   nand.EraseResult
	err   error
	media mediaLink
	hold  segHold

	onPlane, onFailed func()
}

func (d *Device) getErase() *eraseOp {
	op := d.eraseOps.Get()
	if op == nil {
		op = &eraseOp{d: d}
		op.onPlane, op.onFailed = op.planeGranted, op.failed
		op.hold.bind(d.eng, op.erased)
	}
	op.live = true
	return op
}

func (op *eraseOp) finish() {
	done, res, err := op.done, op.res, op.err
	op.live = false
	op.dh, op.plane, op.done, op.err = nil, nil, nil, nil
	op.d.eraseOps.Put(op)
	done(res, err)
}

// eraseSuspendPoints is how many segments a suspendable erase is held
// in.
const eraseSuspendPoints = 8

// Erase performs a timed block erase. With SuspendOps the ~3.5 ms
// operation is suspendable at eight points.
func (d *Device) Erase(die, block int, done func(res nand.EraseResult, err error)) {
	op := d.getErase()
	op.die, op.block, op.dh, op.done = die, block, d.dies[die], done
	op.plane = op.dh.plane
	op.plane.Acquire(op.onPlane)
}

func (op *eraseOp) planeGranted() {
	pool.CheckLive(op.live, "ssd erase op")
	d := op.d
	op.res, op.err = op.dh.NAND.EraseBlock(op.block)
	if op.res.LatencyNs > 0 && d.hub.TraceOp() {
		d.hub.Event(telemetry.PidNAND, op.die, "tERASE", d.eng.Now(), op.res.LatencyNs,
			map[string]int64{"block": int64(op.block)})
	}
	if op.err != nil {
		// Erase failures spend the full erase time before the status
		// check reports them; validation rejections are instant.
		d.eng.After(op.res.LatencyNs, op.onFailed)
		return
	}
	d.track(&op.media, MediaOp{Kind: MediaErase, Die: op.die, Block: op.block})
	segments := 1
	if d.cfg.SuspendOps {
		segments = eraseSuspendPoints
	}
	op.hold.start(op.plane, op.res.LatencyNs, segments)
}

func (op *eraseOp) failed() {
	pool.CheckLive(op.live, "ssd erase op")
	op.plane.Release()
	op.finish()
}

func (op *eraseOp) erased() {
	pool.CheckLive(op.live, "ssd erase op")
	op.d.untrack(&op.media)
	op.finish()
}
