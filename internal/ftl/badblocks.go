package ftl

import (
	"slices"

	"cubeftl/internal/telemetry"
)

// Bad-block management and degradation: a retired block (factory-marked,
// or grown bad by a program or erase failure) is never written again; a
// die that runs out of blocks drops to read-only, the device once all have.

// retireActive pulls a failed block out of the chip's write points and
// retires it as grown-bad, backfilling the write point when a fresh
// block is available.
func (c *Controller) retireActive(chip int, cursor *BlockCursor) {
	if i := slices.Index(c.dies[chip].actives, cursor); i >= 0 {
		c.replaceWritePoint(chip, i)
	}
	c.retireBlock(chip, cursor.Block)
}

// retireBlock marks a block grown-bad: the chip records the bad-block
// mark (as a controller writes one into the spare area), the block
// never returns to the free pool, and any live pages it still holds
// are evacuated to fresh blocks.
func (c *Controller) retireBlock(chip, block int) {
	if c.role(chip, block) == roleRetired {
		return
	}
	c.setRole(chip, block, roleRetired)
	c.stats.RetiredBlocks++
	if c.hub.EventLog() != nil {
		c.hub.EmitEvent(telemetry.Event{
			Type:   telemetry.EvBlockRetire,
			Fields: map[string]float64{"chip": float64(chip), "block": float64(block)},
		})
	}
	c.dev.Die(chip).NAND.MarkBadBlock(block)
	if c.rec != nil {
		c.rec.NoteRetired(chip, block)
	}
	if c.mapper.ValidCount(chip, block) > 0 {
		c.evacuate(chip, block)
	}
	c.checkDieDegraded(chip)
}

// evacuate relocates a retired block's live pages (the relocator leaves
// a retired victim behind instead of erasing it). One cycle runs per
// die at a time; an evacuation that finds the die busy queues and goes
// first when the cycle closes.
func (c *Controller) evacuate(chip, block int) {
	if !c.startReloc(chip, block, causeEvacuate) {
		c.dies[chip].pendingRetire = append(c.dies[chip].pendingRetire, block)
	}
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
	d := &c.dies[chip]
	switch r := c.role(chip, block); {
	case r == roleRetired || r == roleOpen || d.cycle.active:
		return false
	case r == roleFree:
		i := slices.Index(d.free, block)
		d.free = slices.Delete(d.free, i, i+1)
	}
	c.retireBlock(chip, block)
	return true
}

// dieStuck reports that a die can make no forward progress on writes:
// no cycle in flight to replenish its pool, no flush headroom in the
// pool, and no GC victim left to collect.
func (c *Controller) dieStuck(die int) bool {
	d := &c.dies[die]
	if d.cycle.active || len(d.free) > 1 {
		return false
	}
	_, collectable := c.pickVictim(die)
	return len(d.free) == 0 || !collectable
}

// markDieDegraded drops one die to read-only: it is fenced at the
// device so grants already queued on its channel or planes fail with
// ErrDieFenced instead of programming a read-only die.
func (c *Controller) markDieDegraded(die int) {
	d := &c.dies[die]
	if d.degraded {
		return
	}
	d.degraded = true
	c.stats.DegradedDies++
	c.instant(die, "die_degraded")
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
	for _, cur := range d.actives {
		c.closeWritePoint(die, cur)
		c.pol.BlockRetired(die, cur.Block)
		c.setRole(die, cur.Block, roleData)
	}
	d.actives = nil
}

// checkDieDegraded degrades one die if it is stuck, then reassesses
// the device. One dead die must not force the whole device read-only:
// writes keep flowing to the surviving dies.
func (c *Controller) checkDieDegraded(die int) {
	if c.dies[die].degraded || !c.dieStuck(die) {
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
	for die := range c.dies {
		if !c.dies[die].degraded && !c.dieStuck(die) {
			return
		}
	}
	for die := range c.dies {
		c.markDieDegraded(die)
	}
	c.degraded = true
	for c.pendingWrites.Len() > 0 {
		w := c.pendingWrites.Pop()
		c.stats.WriteRejects++
		if w.pp != nil {
			w.pp.AdmitWaitNs += c.eng.Now() - w.start
		}
		w.ack()
	}
	// Held durable acks can never be released by a program now (their
	// data will never reach the media): complete them so the host's
	// closed loop terminates. They are NOT recorded as durable.
	held := c.heldAcks
	c.heldAcks, c.heldAcksTail = nil, nil
	c.pendingAckCount = 0
	runAcks(held)
}

// checkDegraded sweeps every die (used when no single die can be
// blamed, e.g. the flush timer finding no chip to flush to).
func (c *Controller) checkDegraded() {
	for die := range c.dies {
		c.checkDieDegraded(die)
	}
	c.checkDeviceDegraded()
}
