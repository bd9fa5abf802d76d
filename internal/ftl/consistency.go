package ftl

import (
	"fmt"
	"slices"

	"cubeftl/internal/nand"
	"cubeftl/internal/ssd"
)

// Trim invalidates a logical page (the host discard/TRIM command): the
// mapping is dropped and any buffered copy forgotten, so the physical
// page becomes garbage for the next collection. Completion is
// immediate (metadata only). A trim supersedes the page's data the way
// an overwrite does, under the next write stamp, which the page keeps as
// its tombstone: a queued copy is not flushed, an in-flight one settles
// stale, and the writes it superseded that still hold a durable ack are
// acknowledged with it.
func (c *Controller) Trim(lpn LPN, done func()) {
	if lpn >= 0 && int(lpn) < c.mapper.LogicalPages() {
		c.writeStamp++
		freed := c.buf.Trim(lpn, c.writeStamp)
		c.mapper.Invalidate(lpn)
		c.setStamp(lpn, c.writeStamp)
		c.stats.Trims++
		if c.rec != nil {
			c.rec.NoteTrim(lpn, c.writeStamp)
		}
		var acked *hostWrite
		c.takeHeldAcks(lpn, c.writeStamp, &acked)
		if freed {
			c.admitPending()
			c.maybeFlush()
		}
		runAcks(acked)
	}
	if done != nil {
		c.eng.After(c.cfg.BufferReadNs, done)
	}
}

// CheckConsistency audits the controller's translation state against
// the device, returning the first violation found (nil when clean).
// It verifies, for a drained controller:
//
//   - forward/reverse map agreement (Lookup(Owner(p)) == p),
//   - per-block valid counts match the reverse map,
//   - every live physical page is programmed on its chip,
//   - every block's role agrees with free-list membership, the open
//     cursors and the retired set,
//   - no free-pool block holds live pages,
//   - active cursors agree with chip programmed state,
//   - retired blocks (once all evacuations have finished) hold no live
//     pages.
//
// Tests and long soak runs call it after every phase; it is the fsck of
// the simulated FTL.
func (c *Controller) CheckConsistency() error {
	if !c.Drained() {
		return fmt.Errorf("ftl: consistency check on a non-drained controller")
	}
	geo := c.geo
	// Forward -> reverse.
	for lpn := LPN(0); lpn < LPN(c.mapper.LogicalPages()); lpn++ {
		ppn := c.mapper.Lookup(lpn)
		if ppn == ssd.UnmappedPPN {
			continue
		}
		if owner := c.mapper.Owner(ppn); owner != lpn {
			return fmt.Errorf("ftl: LPN %d maps to PPN %d owned by %d", lpn, ppn, owner)
		}
		chip, block, layer, wl, _ := geo.DecodePPN(ppn)
		addr := nand.Address{Block: block, Layer: layer, WL: wl}
		if !c.dev.Die(chip).NAND.IsProgrammed(addr) {
			return fmt.Errorf("ftl: LPN %d maps to unprogrammed %v on chip %d", lpn, addr, chip)
		}
	}
	// Reverse -> forward and valid counts.
	perBlock := geo.PagesPerBlock()
	for chip := 0; chip < geo.Chips; chip++ {
		for b := 0; b < geo.BlocksPerChip; b++ {
			base := ssd.PPN((chip*geo.BlocksPerChip + b) * perBlock)
			live := 0
			for i := 0; i < perBlock; i++ {
				lpn := c.mapper.Owner(base + ssd.PPN(i))
				if lpn == UnmappedLPN {
					continue
				}
				live++
				if got := c.mapper.Lookup(lpn); got != base+ssd.PPN(i) {
					return fmt.Errorf("ftl: PPN %d claims LPN %d which maps to %d", base+ssd.PPN(i), lpn, got)
				}
			}
			if v := c.mapper.ValidCount(chip, b); v != live {
				return fmt.Errorf("ftl: chip %d block %d valid count %d, reverse map has %d", chip, b, v, live)
			}
		}
		// The role table, the free list and the write points say the same
		// thing: as many blocks in each role as the list holds, and every
		// member in that role (so no block is listed twice, and a retired
		// block is in neither).
		d := &c.dies[chip]
		var inRole [roleRetired + 1]int
		for _, r := range c.chipRoles(chip) {
			inRole[r]++
		}
		if inRole[roleFree] != len(d.free) || inRole[roleOpen] != len(d.actives) {
			return fmt.Errorf("ftl: chip %d has %d free and %d open blocks by role, %d in the free list and %d write points",
				chip, inRole[roleFree], inRole[roleOpen], len(d.free), len(d.actives))
		}
		for _, b := range d.free {
			if r := c.role(chip, b); r != roleFree {
				return fmt.Errorf("ftl: block %d in chip %d's free list has role %d", b, chip, r)
			}
			// Free-pool blocks must hold nothing live.
			if v := c.mapper.ValidCount(chip, b); v != 0 {
				return fmt.Errorf("ftl: free block %d on chip %d has %d live pages", b, chip, v)
			}
		}
		// Retired blocks are emptied, unless the evacuation is in flight or
		// queued, or abandoned for good: a fenced (read-only) die can never
		// program the relocation targets, so its retired blocks keep
		// serving their live pages in place.
		for b, r := range c.chipRoles(chip) {
			if r != roleRetired || c.degraded || d.degraded || d.cycle.active || slices.Contains(d.pendingRetire, b) {
				continue
			}
			if v := c.mapper.ValidCount(chip, b); v != 0 {
				return fmt.Errorf("ftl: retired block %d on chip %d still holds %d live pages", b, chip, v)
			}
		}
		// Active cursors must agree with the chip.
		for _, cur := range d.actives {
			if r := c.role(chip, cur.Block); r != roleOpen {
				return fmt.Errorf("ftl: write point %d on chip %d has role %d", cur.Block, chip, r)
			}
			for l := 0; l < geo.Layers; l++ {
				for w := 0; w < geo.WLsPerLayer; w++ {
					onChip := c.dev.Die(chip).NAND.IsProgrammed(nand.Address{Block: cur.Block, Layer: l, WL: w})
					if cur.IsFree(l, w) == onChip {
						return fmt.Errorf("ftl: cursor/chip disagree on chip %d block %d layer %d wl %d",
							chip, cur.Block, l, w)
					}
				}
			}
		}
	}
	return nil
}
