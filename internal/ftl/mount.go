package ftl

import (
	"fmt"
	"slices"

	"cubeftl/internal/nand"
	"cubeftl/internal/ssd"
)

// MountState is the controller's durable translation state: what a
// checkpoint captures and what a recovery mount rebuilds. It contains
// no volatile structures — no buffer contents, no in-flight programs,
// no cursor bitmaps (word-line occupancy is re-derived from the media
// itself at mount, which is what makes partially-programmed and
// never-executed word lines come out right).
type MountState struct {
	// LastStamp is the highest global write stamp issued; LastBlockSeq
	// the highest block sequence number. Both counters resume strictly
	// above these after a mount.
	LastStamp    uint64
	LastBlockSeq uint64

	// Mappings lists every live L2P entry in ascending LPN order, each
	// carrying the write stamp of its data version, and among them every
	// trimmed page, with PPN UnmappedPPN and the trim's stamp.
	Mappings []MappingRecord

	// Free is each chip's erased-block pool, in pool order.
	Free [][]int

	// Actives lists each chip's open write points with their block
	// sequence numbers.
	Actives [][]ActiveRecord

	// Retired lists each chip's retired blocks (factory and grown),
	// sorted ascending.
	Retired [][]int

	// DegradedDies marks dies that had dropped to read-only.
	DegradedDies []bool
}

// MappingRecord is one live L2P entry, or a trim's tombstone.
type MappingRecord struct {
	LPN   LPN
	PPN   ssd.PPN
	Stamp uint64
}

// ActiveRecord identifies an open write point.
type ActiveRecord struct {
	Block int
	Seq   uint64
}

// The accessors below expose the durable state piece by piece, so the
// checkpoint writer can encode it straight into a slot's buffer without
// materialising a MountState (the mapping itself is walked
// through Mapper().Lookup and StampOf).

// StampCounters returns the last write stamp and the last block
// sequence number issued.
func (c *Controller) StampCounters() (lastStamp, lastBlockSeq uint64) {
	return c.writeStamp, c.blockSeq
}

// StampOf returns the global write stamp of the mapped copy of lpn, or
// of the trim that unmapped it (zero when neither happened since the
// stamp counter started).
func (c *Controller) StampOf(lpn LPN) uint64 { return c.stamps[lpn] }

// StampedPages returns how many logical pages have a stamp: the mapped
// ones and the trimmed ones.
func (c *Controller) StampedPages() int { return c.stamped }

// setStamp records the stamp of lpn's mapped copy or tombstone.
func (c *Controller) setStamp(lpn LPN, stamp uint64) {
	if c.stamps[lpn] == 0 {
		c.stamped++
	}
	c.stamps[lpn] = stamp
}

// FreeBlocks returns a chip's erased-block pool in pool order. The
// slice is the controller's own: read it before the engine runs again
// and do not modify it.
func (c *Controller) FreeBlocks(chip int) []int { return c.dies[chip].free }

// AppendActives appends a chip's open write points to dst, then the
// closed blocks a program is still programming (die.closing) that
// nothing has collected since: the mount scans them all for pages to
// roll forward, and one that turns out full is a dirty block again. A
// retired one is listed too: a program into it may still complete, and
// ack a page that waits there for its evacuation.
func (c *Controller) AppendActives(dst []ActiveRecord, chip int) []ActiveRecord {
	d := &c.dies[chip]
	for _, cur := range d.actives {
		dst = append(dst, ActiveRecord{Block: cur.Block, Seq: cur.Seq})
	}
	for _, cur := range d.closing {
		if r := c.role(chip, cur.Block); r == roleData || r == roleRetired {
			dst = append(dst, ActiveRecord{Block: cur.Block, Seq: cur.Seq})
		}
	}
	return dst
}

// AppendRetired appends a chip's retired blocks (factory and grown) to
// dst in ascending order.
func (c *Controller) AppendRetired(dst []int, chip int) []int {
	for b, r := range c.chipRoles(chip) {
		if r == roleRetired {
			dst = append(dst, b)
		}
	}
	return dst
}

// NewControllerWithState rebuilds a controller over a device whose
// media survived a power cut — the mount path. The mapping, pools,
// retired set, degraded dies, and stamp counters come from ms (the
// recovered state); word-line occupancy of the restored write points
// comes from the media. Write points are topped back up to the
// policy's count from the free pool, and retired blocks still holding
// live pages are queued for evacuation (run the engine until
// GCActiveAny reports false to let those finish).
func NewControllerWithState(dev *ssd.Device, pol Policy, cfg ControllerConfig, ms MountState) (*Controller, error) {
	c := newController(dev, pol, cfg)
	geo := c.geo
	nChips := geo.Chips
	if len(ms.Free) != nChips || len(ms.Actives) != nChips || len(ms.Retired) != nChips {
		return nil, fmt.Errorf("ftl: mount state covers %d chips, device has %d", len(ms.Free), nChips)
	}
	c.writeStamp = ms.LastStamp
	c.blockSeq = ms.LastBlockSeq

	outside := func(b int) bool { return b < 0 || b >= geo.BlocksPerChip }
	for chip := 0; chip < nChips; chip++ {
		if slices.ContainsFunc(ms.Free[chip], outside) || slices.ContainsFunc(ms.Retired[chip], outside) ||
			slices.ContainsFunc(ms.Actives[chip], func(a ActiveRecord) bool { return outside(a.Block) }) {
			return nil, fmt.Errorf("ftl: mount state names a block outside chip %d's %d", chip, geo.BlocksPerChip)
		}
		chipNAND := dev.Die(chip).NAND
		for _, b := range ms.Retired[chip] {
			if c.role(chip, b) != roleRetired { // grown, not a factory mark
				c.setRole(chip, b, roleRetired)
				c.stats.RetiredBlocks++
			}
		}
		for _, b := range ms.Free[chip] {
			c.pushFree(chip, b)
		}
		for _, ar := range ms.Actives[chip] {
			cur := c.openCursor(chip, ar.Block)
			cur.Seq = ar.Seq
			for l := 0; l < geo.Layers; l++ {
				for w := 0; w < geo.WLsPerLayer; w++ {
					if chipNAND.IsProgrammed(nand.Address{Block: ar.Block, Layer: l, WL: w}) {
						cur.Take(l, w)
					}
				}
			}
			if cur.Full() {
				c.releaseCursor(cur)
				continue // filled right before the cut: a dirty block now
			}
			c.dies[chip].actives = append(c.dies[chip].actives, cur)
			c.setRole(chip, ar.Block, roleOpen)
		}
	}

	// Install the recovered mapping.
	for _, m := range ms.Mappings {
		if m.LPN < 0 || int(m.LPN) >= c.LogicalPages() {
			return nil, fmt.Errorf("ftl: mount state maps out-of-range LPN %d", m.LPN)
		}
		c.setStamp(m.LPN, m.Stamp)
		if m.PPN != ssd.UnmappedPPN {
			c.mapper.Map(m.LPN, m.PPN)
			c.recordMapping(m.LPN, m.Stamp)
		}
	}

	// Restore degraded dies: fence them again and leave their write
	// points abandoned, exactly as when they first degraded (no hub or
	// recovery hook is attached yet, so nobody hears of it twice).
	for die, deg := range ms.DegradedDies {
		if deg {
			c.markDieDegraded(die)
		}
	}

	// Re-arm write points and restart any interrupted evacuations.
	for chip := 0; chip < nChips; chip++ {
		if c.dies[chip].degraded {
			continue
		}
		c.armWritePoints(chip)
		for _, b := range ms.Retired[chip] {
			if c.mapper.ValidCount(chip, b) > 0 {
				c.evacuate(chip, b)
			}
		}
	}
	// No completion is coming that would settle a die (or the device).
	for chip := range c.dies {
		c.settle(chip)
	}
	return c, nil
}
