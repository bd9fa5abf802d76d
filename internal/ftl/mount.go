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

	// L2P and Stamps are the translation tables the controller keeps,
	// indexed by LPN and LogicalPages long: the PPN holding each page and
	// the write stamp of its data version. A trimmed page keeps the trim's
	// stamp as its tombstone, at PPN UnmappedPPN; stamp 0 means no entry.
	L2P    []ssd.PPN
	Stamps []uint64

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

// LogicalPages returns how many pages a device of geometry geo exports:
// its physical pages less the over-provisioned share.
func LogicalPages(geo ssd.Geometry) int {
	return int(float64(geo.PhysPages()) * (1 - OverProvision))
}

// NewMountState returns the state of a device of geometry geo that
// holds nothing: every page unmapped and unstamped, every pool empty.
func NewMountState(geo ssd.Geometry) MountState {
	n := LogicalPages(geo)
	l2p := make([]ssd.PPN, n)
	for i := range l2p {
		l2p[i] = ssd.UnmappedPPN
	}
	return MountState{
		L2P:          l2p,
		Stamps:       make([]uint64, n),
		Free:         make([][]int, geo.Chips),
		Actives:      make([][]ActiveRecord, geo.Chips),
		Retired:      make([][]int, geo.Chips),
		DegradedDies: make([]bool, geo.Chips),
	}
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
// media survived a power cut — the mount path. It takes ms (the
// recovered state) as its own, L2P and stamp tables without a copy;
// word-line occupancy of the restored write points comes from the media.
// Write points are topped back up to the policy's count from the free
// pool, and retired blocks still holding live pages are queued for
// evacuation (run the engine until GCActiveAny reports false to let
// those finish). A state it cannot take is an error, never a panic.
func NewControllerWithState(dev *ssd.Device, pol Policy, cfg ControllerConfig, ms MountState) (*Controller, error) {
	geo := dev.Geometry()
	if n := LogicalPages(geo); len(ms.L2P) != n || len(ms.Stamps) != n {
		return nil, fmt.Errorf("ftl: mount state maps %d LPNs and stamps %d, the device exports %d", len(ms.L2P), len(ms.Stamps), n)
	}
	nChips := geo.Chips
	if len(ms.Free) != nChips || len(ms.Actives) != nChips || len(ms.Retired) != nChips || len(ms.DegradedDies) != nChips {
		return nil, fmt.Errorf("ftl: mount state covers %d chips, device has %d", len(ms.Free), nChips)
	}
	c := newController(dev, pol, cfg, ms.L2P, ms.Stamps)
	c.writeStamp = ms.LastStamp
	c.blockSeq = ms.LastBlockSeq

	// A free or open block must be one the chip has and no other pool
	// lists: a block's role is set once.
	outside := func(b int) bool { return b < 0 || b >= geo.BlocksPerChip }
	for chip := 0; chip < nChips; chip++ {
		taken := func(b int) bool { return outside(b) || c.role(chip, b) != roleData }
		if slices.ContainsFunc(ms.Retired[chip], outside) {
			return nil, fmt.Errorf("ftl: mount state retires a block outside chip %d's %d", chip, geo.BlocksPerChip)
		}
		chipNAND := dev.Die(chip).NAND
		for _, b := range ms.Retired[chip] {
			if c.role(chip, b) != roleRetired { // grown, not a factory mark
				c.setRole(chip, b, roleRetired)
				c.stats.RetiredBlocks++
			}
		}
		for _, b := range ms.Free[chip] {
			if taken(b) {
				return nil, fmt.Errorf("ftl: mount state lists chip %d block %d free, outside the chip or in two pools", chip, b)
			}
			c.pushFree(chip, b)
		}
		for _, ar := range ms.Actives[chip] {
			if taken(ar.Block) {
				return nil, fmt.Errorf("ftl: mount state lists chip %d block %d open, outside the chip or in two pools", chip, ar.Block)
			}
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
	if err := c.adoptMappings(); err != nil {
		return nil, err
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

// adoptMappings builds the reverse map, the valid counts and the stamped
// count of the adopted tables in one pass in LPN order: the one check of
// a recovered state's mappings. It refuses a PPN outside the device, one
// two LPNs claim, and a page unprogrammed or in a block the pools call free.
func (c *Controller) adoptMappings() error {
	m, geo := c.mapper, c.geo
	for lpn, ppn := range m.forward {
		if c.stamps[lpn] != 0 {
			c.stamped++
		}
		if ppn == ssd.UnmappedPPN {
			continue
		}
		if ppn < 0 || int(ppn) >= len(m.reverse) {
			return fmt.Errorf("ftl: mount state maps LPN %d to PPN %d, outside the device's %d", lpn, ppn, len(m.reverse))
		}
		if prev := m.reverse[ppn]; prev != unmappedSlot {
			return fmt.Errorf("ftl: mount state maps LPNs %d and %d to PPN %d", prev, lpn, ppn)
		}
		chip, block, layer, wl, _ := geo.DecodePPN(ppn)
		if c.role(chip, block) == roleFree || !c.dev.Die(chip).NAND.IsProgrammed(nand.Address{Block: block, Layer: layer, WL: wl}) {
			return fmt.Errorf("ftl: mount state maps LPN %d to PPN %d, unwritten in chip %d block %d", lpn, ppn, chip, block)
		}
		m.reverse[ppn] = int32(lpn)
		m.valid[chip*geo.BlocksPerChip+block]++
		c.recordMapping(LPN(lpn), c.stamps[lpn])
	}
	return nil
}
