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

// The relocator is everything that moves data after it was written: GC,
// read-disturb reclaim, evacuation of a retired block, retention refresh
// and wear leveling are one loop — read a word line's worth of the
// victim's live pages, program them into a write point, repeat, then
// erase and re-pool the victim — entered through startReloc. Nothing
// outside this file opens a cycle or steps one (make one-relocator).

// relocCause says why a block's data is being moved; it picks the cycle's
// counter, WAF column and trace instant.
type relocCause uint8

const (
	causeGC        relocCause = iota // the die's free pool ran low
	causeReclaim                     // a block's read count passed the disturb budget
	causeEvacuate                    // a retired block still holds live pages
	causeRefresh                     // retention age or predicted BER is past the policy's limit
	causeWearLevel                   // the die's erase-count spread is past the policy's limit
	numCauses
)

// causeInstant names the trace instant a cause's cycles open with.
var causeInstant = [numCauses]string{causeRefresh: "refresh", causeWearLevel: "wear_level"}

// relocColumns returns a cause's cycle counter and the column of the WAF
// ledger its programs land on (reclaim and evacuation share GC's).
func (s *Stats) relocColumns(cause relocCause) (cycles, pages *int64) {
	return [numCauses]*int64{&s.GCCount, &s.Reclaims, &s.Evacuations, &s.Refreshes, &s.WearLevels}[cause],
		[numCauses]*int64{&s.GCPages, &s.GCPages, &s.GCPages, &s.RefreshPages, &s.WLPages}[cause]
}

// relocCycle is a die's relocation cycle: at most one runs per die at a
// time, so the record lives in the die and the callbacks its closing
// steps hand to the recovery hook and the device are bound once.
type relocCycle struct {
	c    *Controller
	chip int

	active bool
	victim int
	cause  relocCause
	// live is the victim's relocation set, refilled in place when a
	// cycle opens and when stragglers are swept: the batches walk it.
	live []LPN

	onBarrier, onRepool func()
	onErased            func(nand.EraseResult, error)
}

func (cy *relocCycle) bind(c *Controller, chip int) {
	cy.c, cy.chip = c, chip
	cy.live = make([]LPN, 0, c.geo.PagesPerBlock())
	cy.onBarrier, cy.onErased, cy.onRepool = cy.erase, cy.erased, cy.repool
}

// admits is the admission guard every cause shares: one cycle per die at
// a time. An evacuation needs nothing more; GC needs a die that still
// writes; the voluntary causes also leave the last free block to GC.
func (d *die) admits(cause relocCause) bool {
	if d.cycle.active {
		return false
	}
	if cause == causeEvacuate {
		return true
	}
	return !d.degraded && (cause == causeGC || len(d.free) > 1)
}

// startReloc opens a relocation cycle moving the block's live pages, or
// reports false when the die does not admit one for the cause now. It is
// the only opener of a cycle.
func (c *Controller) startReloc(chip, block int, cause relocCause) bool {
	d := &c.dies[chip]
	if !d.admits(cause) {
		return false
	}
	cy := &d.cycle
	cy.active, cy.victim, cy.cause = true, block, cause
	cycles, _ := c.stats.relocColumns(cause)
	*cycles++
	if name := causeInstant[cause]; name != "" {
		c.instant(chip, name)
	}
	cy.relocateLive()
	return true
}

// mappedIn reports whether lpn's live copy sits in the block.
func (c *Controller) mappedIn(lpn LPN, chip, block int) bool {
	ppn := c.mapper.Lookup(lpn)
	if ppn == ssd.UnmappedPPN {
		return false
	}
	pc, pb, _, _, _ := c.geo.DecodePPN(ppn)
	return pc == chip && pb == block
}

// relocate is the batch loop's entry: it moves the next word line's
// worth of lpns still live in the victim (relocOp comes back here with
// the rest) and finishes the cycle when none is left.
func (cy *relocCycle) relocate(lpns []LPN) {
	c := cy.c
	g := c.getReloc()
	g.n = 0
	for g.n < vth.PagesPerWL && len(lpns) > 0 {
		if l := lpns[0]; c.mappedIn(l, cy.chip, cy.victim) {
			g.batch[g.n], g.stamps[g.n] = l, c.stamps[l]
			g.n++
		}
		lpns = lpns[1:]
	}
	if g.n == 0 {
		g.release()
		cy.finish()
		return
	}
	g.chip, g.victim, g.cause, g.rest, g.i = cy.chip, cy.victim, cy.cause, lpns, 0
	g.readNext()
}

// finish closes a cycle whose victim has been emptied: a normal victim
// is erased and returned to the free pool — behind the recovery hook's
// two barriers when one is attached; a retired block is simply left
// behind (its evacuation is complete and it must never be reused).
func (cy *relocCycle) finish() {
	c := cy.c
	if cy.sweepStragglers() {
		return
	}
	switch {
	case c.role(cy.chip, cy.victim) == roleRetired:
		c.mapper.ClearBlock(cy.chip, cy.victim)
		cy.done()
	case c.rec != nil:
		// What sends a mount to the victim's copies — their blocks'
		// opening records — and every trim of a page the checkpoint maps
		// into it must be durable before the cells are wiped.
		c.rec.BarrierErase(cy.chip, cy.victim, cy.onBarrier)
	default:
		cy.erase()
	}
}

// sweepStragglers relocates pages that reached the victim after the
// cycle's snapshot of it: a program issued before the cycle began can
// complete mid-relocation, or while the erase waits for the journal, and
// map pages into the block. Erasing now would destroy them.
func (cy *relocCycle) sweepStragglers() bool {
	if cy.c.mapper.ValidCount(cy.chip, cy.victim) == 0 {
		return false
	}
	cy.relocateLive()
	return true
}

// relocateLive snapshots the victim's live pages into the cycle's
// relocation set and starts moving them. No batch holds the set then:
// the cycle is opening, or its last batch found nothing left to move.
func (cy *relocCycle) relocateLive() {
	cy.live = cy.c.mapper.AppendLivePages(cy.live[:0], cy.chip, cy.victim)
	cy.relocate(cy.live)
}

func (cy *relocCycle) erase() {
	if !cy.sweepStragglers() {
		cy.c.dev.Erase(cy.chip, cy.victim, cy.onErased)
	}
}

func (cy *relocCycle) erased(_ nand.EraseResult, err error) {
	c := cy.c
	if err != nil {
		// Erase failure: the block is grown-bad. Its live data was
		// already relocated, so retiring it loses nothing.
		c.stats.EraseFailures++
		c.retireBlock(cy.chip, cy.victim)
		c.mapper.ClearBlock(cy.chip, cy.victim)
		c.stats.FaultRecoveries++
		cy.done()
		return
	}
	c.mapper.ClearBlock(cy.chip, cy.victim)
	if c.rec != nil {
		// The block may not be reopened until its erase record is
		// durable, or it could take writes no mount scans for.
		c.rec.NoteErased(cy.chip, cy.victim, cy.onRepool)
	} else {
		cy.repool()
	}
}

func (cy *relocCycle) repool() {
	cy.c.pushFree(cy.chip, cy.victim)
	cy.c.pol.BlockErased(cy.chip, cy.victim)
	cy.done()
}

// done closes the cycle and starts the die's next background work in
// priority order: queued evacuations, space-pressure GC, queued
// refreshes, then a wear-leveling move (each refused once one runs).
func (cy *relocCycle) done() {
	c, chip := cy.c, cy.chip
	d := &c.dies[chip]
	cy.active = false
	for len(d.pendingRetire) > 0 {
		block := d.pendingRetire[0]
		d.pendingRetire = d.pendingRetire[1:]
		if c.mapper.ValidCount(chip, block) > 0 {
			c.startReloc(chip, block, causeEvacuate)
			return
		}
		c.mapper.ClearBlock(chip, block)
	}
	c.checkGC(chip)
	c.kickRefresh(chip)
	c.maybeWearLevel(chip)
	c.maybeFlush()
}

// GCActiveAny reports whether any die is mid-cycle.
func (c *Controller) GCActiveAny() bool {
	for i := range c.dies {
		if c.dies[i].cycle.active {
			return true
		}
	}
	return false
}

// relocOp moves one word line's worth of a victim block's live pages:
// it reads them one by one, then programs them into an active block. A
// relocation cycle is a chain of these batches.
type relocOp struct {
	c    *Controller
	live bool

	chip, victim int
	cause        relocCause
	rest         []LPN // victim pages still to visit after this batch
	n            int   // pages in this batch
	batch        [vth.PagesPerWL]LPN
	stamps       [vth.PagesPerWL]uint64 // the stamp of each page's copy in the victim
	data         [vth.PagesPerWL][]byte // payloads read (VerifyData mode)

	// The read in progress.
	i       int
	addr    nand.Address
	params  nand.ReadParams
	attempt int

	// The program in progress.
	cursor           *BlockCursor
	block, layer, wl int
	progParams       nand.ProgramParams
	issueAt          sim.Time
	oob              wlOOB

	onRead    func(res nand.ReadResult, err error)
	onProgram func(res *nand.ProgramResult, err error)
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

func (g *relocOp) cycle() *relocCycle { return &g.c.dies[g.chip].cycle }

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
	if g.c.readOutcome(g.chip, g.victim, g.addr.Layer, res, err, g.attempt) {
		g.attempt++
		g.c.dev.Read(g.chip, g.addr, g.params, nil, g.onRead)
		return
	}
	g.data[g.i] = res.Data
	g.i++
	g.readNext()
}

// gcPages returns the relocated payloads for one word-line program, the
// slots the batch does not fill padded.
func (g *relocOp) gcPages() [][]byte {
	if g.c.expectedStamp == nil {
		return nil
	}
	for i := range g.data {
		if i >= g.n || g.data[i] == nil {
			g.data[i] = MakePageTag(UnmappedLPN, 0)
		}
	}
	return g.data[:]
}

// gcOOB builds the spare-area records for the batch's word line: each
// copy keeps the write stamp of the version it copies, taken when the
// batch was formed — not the page's stamp now, which a host overwrite
// since may have moved past the data this program carries. Like
// flushOOB it returns nil without DurableAcks.
func (g *relocOp) gcOOB(blockSeq uint64) [][]byte {
	if !g.c.cfg.DurableAcks {
		return nil
	}
	for i, l := range g.batch[:g.n] {
		g.oob.put(i, l, g.stamps[i], blockSeq)
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
		g.cycle().active = false
		g.release()
		c.settle(chip)
		return
	}
	cursor.Take(layer, wl)
	cursor.programs++
	g.cursor, g.block, g.layer, g.wl = cursor, cursor.Block, layer, wl
	g.progParams = c.pol.ProgramParams(chip, g.block, layer, wl)
	addr := nand.Address{Block: g.block, Layer: layer, WL: wl}
	g.issueAt = c.eng.Now()
	c.dev.Program(chip, addr, g.gcPages(), g.gcOOB(cursor.Seq), g.progParams, g.onProgram)
}

func (g *relocOp) programDone(res *nand.ProgramResult, err error) {
	pool.CheckLive(g.live, "ftl relocation batch")
	c, chip, victim, cursor := g.c, g.chip, g.victim, g.cursor
	if errors.Is(err, ssd.ErrDieFenced) {
		// Defensive: a fence cannot normally race an active cycle (it
		// keeps the die from degrading), but if it ever does the
		// victim's copies are still intact — just end the cycle.
		c.stats.FencedPrograms++
		c.programEnded(chip, cursor)
		g.cycle().active = false
		g.release()
		c.settle(chip)
		return
	}
	if err != nil {
		// The program failed: retire the destination and retry the same
		// batch on a fresh word line (the source copies are still
		// intact on the victim).
		c.stats.ProgramFailures++
		c.programEnded(chip, cursor)
		c.retireActive(chip, g.block)
		c.stats.FaultRecoveries++
		g.write()
		return
	}
	_, wafPages := c.stats.relocColumns(g.cause)
	c.programmed(chip, res.LatencyNs, wafPages)
	if c.hub.Tracing() {
		c.hub.Event(telemetry.PidFTL, chip, "gc_write", g.issueAt, c.eng.Now()-g.issueAt,
			map[string]int64{"pages": int64(g.n), "victim": int64(victim)})
	}
	verdict := c.pol.ObserveProgram(chip, g.block, g.layer, g.wl, g.progParams, res)
	c.programEnded(chip, cursor)
	if verdict == VerdictReprogram {
		c.stats.Reprograms++
		c.instant(chip, "requeue_reprogram")
		c.retireIfFull(chip, g.block)
		// Retry the same batch on the next word line.
		g.write()
		return
	}
	wlIdx := g.layer*c.geo.WLsPerLayer + g.wl
	moved := 0
	for i, l := range g.batch[:g.n] {
		// Re-check liveness: the host may have overwritten it while the
		// program was in flight (a straggler can even land the newer
		// version in the victim itself).
		if c.mappedIn(l, chip, victim) && c.stamps[l] == g.stamps[i] {
			dst := c.geo.EncodePPN(chip, g.block, wlIdx, i)
			c.mapper.Map(l, dst)
			moved++
			if c.rec != nil {
				// The relocated copy keeps its data's stamp; a mount
				// breaks the tie with the source copy by reading what
				// the source page still holds.
				c.rec.NoteMapped(l, g.stamps[i])
			}
		}
	}
	c.stats.GCPageMoves += int64(moved)
	c.retireIfFull(chip, g.block)
	cy, rest := g.cycle(), g.rest
	g.release()
	cy.relocate(rest)
}
