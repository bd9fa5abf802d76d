package ftl

import (
	"cubeftl/internal/lifetime"
	"cubeftl/internal/nand"
)

// Where each cause of a relocation cycle finds its victim. Every
// function here ends in startReloc or does nothing; retirement
// evacuations, the fifth cause, start in badblocks.go.

// checkGC starts garbage collection on a die whose free pool ran low.
func (c *Controller) checkGC(chip int) {
	d := &c.dies[chip]
	if len(d.free) > c.cfg.GCFreeBlocksLow || !d.admits(causeGC) {
		return
	}
	if victim, ok := c.pickVictim(chip); ok {
		c.startReloc(chip, victim, causeGC)
	} else {
		c.checkDieDegraded(chip)
	}
}

// pickVictim selects the closed block with the fewest valid pages
// (greedy policy), if it has a page to win: a fully valid victim frees
// nothing, and the cycle after it would find the same state.
func (c *Controller) pickVictim(chip int) (int, bool) {
	best, bestValid := -1, c.geo.PagesPerBlock()
	for b, r := range c.chipRoles(chip) {
		if r != roleData {
			continue
		}
		if v := c.mapper.ValidCount(chip, b); v < bestValid {
			best, bestValid = b, v
		}
	}
	return best, best >= 0
}

// maybeReclaim starts a read-disturb reclaim of a block whose read
// count exceeded the chip's disturb budget: its data is relocated and
// the erase resets the counter.
func (c *Controller) maybeReclaim(chip, block int) {
	if c.cfg.DisableReadReclaim || c.role(chip, block) != roleData || !c.dies[chip].admits(causeReclaim) {
		return
	}
	if c.dev.Die(chip).NAND.BlockReads(block) >= nand.ReadDisturbBudget {
		c.startReloc(chip, block, causeReclaim)
	}
}

// refreshDue applies the refresh policy to one block, which must be
// closed: its own retention clock (never the chip-wide pre-aged override
// — that would never reset and the scrubber would loop forever) and its
// predicted worst-layer BER on the E<->P1 boundary.
func (c *Controller) refreshDue(chip, block int) bool {
	if c.role(chip, block) != roleData {
		return false
	}
	n := c.dev.Die(chip).NAND
	return lifetime.NeedsRefresh(n.BlockPredictedBER(block), n.RetentionMonths(block))
}

// maybeScrub advances the retention patrol: every RefreshPatrolReads
// host reads on a die fund an inspection of the next block in rotation,
// and a block past the refresh thresholds is rewritten. The read-funded
// budget is the rate limit that keeps the scrubber yielding to tenant
// traffic.
func (c *Controller) maybeScrub(chip int) {
	if !c.cfg.Refresh {
		return
	}
	d := &c.dies[chip]
	d.patrolCredit++
	if d.patrolCredit < c.cfg.RefreshPatrolReads {
		return
	}
	d.patrolCredit = 0
	if !d.admits(causeRefresh) {
		return
	}
	block := d.patrolCursor
	d.patrolCursor = (block + 1) % c.geo.BlocksPerChip
	if c.refreshDue(chip, block) {
		c.startReloc(chip, block, causeRefresh)
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
	for chip := range c.dies {
		d := &c.dies[chip]
		if d.degraded {
			continue
		}
		for b := 0; b < c.geo.BlocksPerChip; b++ {
			if c.refreshDue(chip, b) {
				d.pendingRefresh = append(d.pendingRefresh, b)
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
	d := &c.dies[chip]
	if !d.admits(causeRefresh) {
		return
	}
	for len(d.pendingRefresh) > 0 {
		block := d.pendingRefresh[0]
		d.pendingRefresh = d.pendingRefresh[1:]
		if c.refreshDue(chip, block) {
			c.startReloc(chip, block, causeRefresh)
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
	d := &c.dies[chip]
	if !c.cfg.WearLevel || !d.admits(causeWearLevel) || d.lastWLGC == c.stats.GCCount {
		return
	}
	n := c.dev.Die(chip).NAND
	minPE, maxPE, victim := int(^uint(0)>>1), -1, -1
	for b, r := range c.chipRoles(chip) {
		if r == roleRetired {
			continue
		}
		pe := n.PECycles(b)
		maxPE, minPE = max(maxPE, pe), min(minPE, pe)
		// The move candidate is the least-worn block actually pinned by
		// data (not free, not an open write point).
		if r == roleData && (victim < 0 || pe < n.PECycles(victim)) {
			victim = b
		}
	}
	if victim >= 0 && lifetime.ShouldLevel(minPE, maxPE) {
		d.lastWLGC = c.stats.GCCount
		c.startReloc(chip, victim, causeWearLevel)
	}
}
