package nand

// Power-cut media semantics. A simulated power loss catches some
// word-line programs and block erases mid-operation; the recovery
// subsystem (internal/recovery) tears them on a copy of the array
// (Clone), as real 3D NAND would be left: partially-programmed word
// lines with indeterminate charge, half-erased blocks to erase again.

// Clone returns a copy of the array that shares nothing either copy's
// operations change — word-line states, payload slabs, spare arenas,
// wear, bad-block marks, counters, fault triggers, random streams — so
// the copy draws what the original would have. It shares the read-only
// process models and the stored payloads, never changed in place. A
// die's word-line and spare slabs are copied once each and carved anew;
// only a block with an arena of its own, or a payload slab, costs an
// allocation of its own.
func (a *Array) Clone() *Array {
	cp := &Array{cfg: a.cfg, dies: make([]*Chip, 0, len(a.dies))}
	for _, d := range a.dies {
		c := *d
		src, faultSrc := *d.src, *d.faultSrc
		c.src, c.faultSrc, c.eccEng = &src, &faultSrc, d.eccEng.Clone()
		c.faults.ProgramFailAt = append([]Address(nil), d.faults.ProgramFailAt...)
		c.faults.EraseFailAt = append([]int(nil), d.faults.EraseFailAt...)
		c.blocks = append([]blockState(nil), d.blocks...)
		c.wls = append([]wlState(nil), d.wls...)
		c.carveWLs()
		if d.spare != nil {
			c.spare = make([]byte, len(d.spare))
		}
		for b := range c.blocks {
			blk := &c.blocks[b]
			blk.pages = append([][]byte(nil), blk.pages...)
			switch { // a program appends to the arena in place
			case d.carved(b):
				off := b * c.spareStride
				blk.spare = append(c.spare[off:off:off+c.spareStride], blk.spare...)
			case blk.spare != nil:
				blk.spare = append(make([]byte, 0, cap(blk.spare)), blk.spare...)
			}
		}
		cp.dies = append(cp.dies, &c)
	}
	return cp
}

// CutWordLine models a program interrupted by power loss. The word
// line reads as programmed (its cells are no longer erased) but both
// payload and OOB are indeterminate: any read fails ECC at every
// retry offset, and the recovery scan sees no valid spare-area record.
func (c *Chip) CutWordLine(a Address) {
	blk := &c.blocks[a.Block]
	blk.wls[c.wlIndex(a)] = wlState{
		programmed:   true,
		paramPenalty: 1e9, // garbage: unreadable at any offset
		partial:      true,
	}
	clear(blk.wlPages(c.wlIndex(a)))
}

// CutErase models an erase interrupted by power loss: the cells got a
// partial erase pulse, so the old contents are gone but the block is
// not reliably erased either. It must be erased again before any
// program. The interrupted pulse does not count as a P/E cycle.
func (c *Chip) CutErase(block int) {
	blk := &c.blocks[block]
	blk.clearWLs()
	blk.erased = false
	blk.reads = 0
}

// OOB returns the spare-area metadata stored with a page, or nil when
// the page was never programmed, was programmed without a record (or
// with an empty one), or belongs to a partially-programmed (power-cut)
// word line. The record is a read-only view of the block's spare arena,
// capped at its own length: it is valid until the block's next program
// or erase, and a caller that keeps it longer copies it.
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
	end := off + int(st.oobLen[a.Page])
	if end == off {
		return nil
	}
	return blk.spare[off:end:end]
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
