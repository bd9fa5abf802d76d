package nand

import "fmt"

// Power-cut media semantics. A simulated power loss catches some
// word-line programs and block erases mid-operation; the recovery
// subsystem (internal/recovery) calls these hooks to leave the media in
// the state real 3D NAND would be in: partially-programmed word lines
// whose cells hold indeterminate charge, and half-erased blocks that
// must be erased again before reuse.

// CutWordLine models a program interrupted by power loss. The word
// line reads as programmed (its cells are no longer erased) but both
// payload and OOB are indeterminate: any read fails ECC at every
// retry offset, and the recovery scan sees no valid spare-area record.
func (c *Chip) CutWordLine(a Address) error {
	if err := c.checkAddr(a); err != nil {
		return err
	}
	blk := &c.blocks[a.Block]
	blk.wls[c.wlIndex(a)] = wlState{
		programmed:   true,
		paramPenalty: 1e9, // garbage: unreadable at any offset
		partial:      true,
	}
	clear(blk.wlPages(c.wlIndex(a)))
	return nil
}

// CutErase models an erase interrupted by power loss: the cells got a
// partial erase pulse, so the old contents are gone but the block is
// not reliably erased either. It must be erased again before any
// program. The interrupted pulse does not count as a P/E cycle.
func (c *Chip) CutErase(block int) error {
	if block < 0 || block >= len(c.blocks) {
		return fmt.Errorf("%w: block %d", ErrBadAddress, block)
	}
	blk := &c.blocks[block]
	blk.clearWLs()
	blk.erased = false
	blk.reads = 0
	return nil
}

// OOB returns the spare-area metadata stored with a page, or nil when
// the page was never programmed, was programmed before OOB existed, or
// belongs to a partially-programmed (power-cut) word line.
func (c *Chip) OOB(a Address) []byte {
	if c.checkAddr(a) != nil {
		return nil
	}
	blk := &c.blocks[a.Block]
	st := &blk.wls[c.wlIndex(a)]
	if !st.programmed || st.partial || !st.hasOOB {
		return nil
	}
	off := int(st.oobOff)
	for _, n := range st.oobLen[:a.Page] {
		off += int(n)
	}
	return append([]byte(nil), blk.spare[off:off+int(st.oobLen[a.Page])]...)
}

// IsPartial reports whether a word line holds a power-cut partial
// program.
func (c *Chip) IsPartial(a Address) bool {
	if c.checkAddr(a) != nil {
		return false
	}
	return c.blocks[a.Block].wls[c.wlIndex(a)].partial
}

// IsErased reports whether a block is cleanly erased: its last erase
// completed and no word line has been programmed since. A power-cut
// erase leaves the block not-erased until it is erased again.
func (c *Chip) IsErased(block int) bool {
	if block < 0 || block >= len(c.blocks) {
		return false
	}
	blk := &c.blocks[block]
	if !blk.erased {
		return false
	}
	for i := range blk.wls {
		if blk.wls[i].programmed {
			return false
		}
	}
	return true
}

// PageData returns the stored payload of a page without simulating a
// read (no latency, no retry ladder, no disturb accounting) — the
// recovery verifier's direct media inspection. nil when the chip does
// not store data or the page holds no valid payload.
func (c *Chip) PageData(a Address) []byte {
	if c.checkAddr(a) != nil {
		return nil
	}
	blk := &c.blocks[a.Block]
	st := &blk.wls[c.wlIndex(a)]
	p := blk.wlPages(c.wlIndex(a))
	if !st.programmed || st.partial || p == nil {
		return nil
	}
	return append([]byte(nil), p[a.Page]...)
}
