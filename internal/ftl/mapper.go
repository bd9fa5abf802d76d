package ftl

import (
	"fmt"

	"cubeftl/internal/ssd"
)

// LPN is a logical page number exposed to the host.
type LPN int64

// UnmappedLPN marks a physical page holding no live logical page.
const UnmappedLPN LPN = -1

// Mapper is the page-level address translation state: the forward map
// (LPN -> PPN), the reverse map (PPN -> LPN) used by garbage collection,
// and per-block valid-page counts used for victim selection.
type Mapper struct {
	geo     ssd.Geometry
	forward []ssd.PPN // indexed by LPN
	// reverse is indexed by PPN and holds the LPN stored there, or
	// unmappedSlot: 32 bits, like a PPN, suffice, because the logical
	// capacity never exceeds the physical one.
	reverse []int32
	valid   []int // live pages per (chip*BlocksPerChip+block)
}

// unmappedSlot is UnmappedLPN in the reverse map.
const unmappedSlot = int32(UnmappedLPN)

// newMapper builds translation state around forward, the L2P indexed by
// LPN, which it keeps. The reverse map and the valid counts start empty:
// adoptMappings fills them for a forward map that maps anything.
func newMapper(geo ssd.Geometry, forward []ssd.PPN) *Mapper {
	if len(forward) == 0 || len(forward) > geo.PhysPages() {
		panic(fmt.Sprintf("ftl: logical capacity %d out of range (phys %d)", len(forward), geo.PhysPages()))
	}
	m := &Mapper{
		geo:     geo,
		forward: forward,
		reverse: make([]int32, geo.PhysPages()),
		valid:   make([]int, geo.Chips*geo.BlocksPerChip),
	}
	fillUnmapped(m.reverse)
	return m
}

func fillUnmapped(reverse []int32) {
	for i := range reverse {
		reverse[i] = unmappedSlot
	}
}

// LogicalPages returns the exported capacity in pages.
func (m *Mapper) LogicalPages() int { return len(m.forward) }

// Mapped returns how many logical pages currently hold a mapping.
func (m *Mapper) Mapped() int {
	n := 0
	for _, v := range m.valid {
		n += v
	}
	return n
}

// Lookup returns the physical page holding lpn, or UnmappedPPN.
func (m *Mapper) Lookup(lpn LPN) ssd.PPN {
	if lpn < 0 || int(lpn) >= len(m.forward) {
		return ssd.UnmappedPPN
	}
	return m.forward[lpn]
}

// blockOf returns the valid-count index of a PPN.
func (m *Mapper) blockOf(ppn ssd.PPN) int {
	chip, block, _, _, _ := m.geo.DecodePPN(ppn)
	return chip*m.geo.BlocksPerChip + block
}

// Map installs lpn -> ppn, invalidating any previous mapping of lpn.
// It panics if ppn already holds a live page (double allocation).
func (m *Mapper) Map(lpn LPN, ppn ssd.PPN) {
	if lpn < 0 || int(lpn) >= len(m.forward) {
		panic(fmt.Sprintf("ftl: Map of out-of-range LPN %d", lpn))
	}
	if m.reverse[ppn] != unmappedSlot {
		panic(fmt.Sprintf("ftl: PPN %d already holds LPN %d", ppn, m.reverse[ppn]))
	}
	if old := m.forward[lpn]; old != ssd.UnmappedPPN {
		m.reverse[old] = unmappedSlot
		m.valid[m.blockOf(old)]--
	}
	m.forward[lpn] = ppn
	m.reverse[ppn] = int32(lpn)
	m.valid[m.blockOf(ppn)]++
}

// Invalidate drops the mapping of lpn (host trim or overwrite-in-buffer).
func (m *Mapper) Invalidate(lpn LPN) {
	if lpn < 0 || int(lpn) >= len(m.forward) {
		return
	}
	if old := m.forward[lpn]; old != ssd.UnmappedPPN {
		m.reverse[old] = unmappedSlot
		m.valid[m.blockOf(old)]--
		m.forward[lpn] = ssd.UnmappedPPN
	}
}

// Owner returns the logical page stored at ppn, or UnmappedLPN.
func (m *Mapper) Owner(ppn ssd.PPN) LPN { return LPN(m.reverse[ppn]) }

// ValidCount returns the number of live pages in a block.
func (m *Mapper) ValidCount(chip, block int) int {
	return m.valid[chip*m.geo.BlocksPerChip+block]
}

// ClearBlock drops reverse entries for an erased block. Any still-valid
// pages must have been relocated first; it panics otherwise.
func (m *Mapper) ClearBlock(chip, block int) {
	if v := m.ValidCount(chip, block); v != 0 {
		panic(fmt.Sprintf("ftl: erasing chip %d block %d with %d valid pages", chip, block, v))
	}
	perBlock := m.geo.PagesPerBlock()
	base := (chip*m.geo.BlocksPerChip + block) * perBlock
	fillUnmapped(m.reverse[base : base+perBlock])
}

// AppendLivePages appends the LPNs currently valid in a block to dst,
// in physical page order — the relocation set for garbage collection —
// and returns the extended slice.
func (m *Mapper) AppendLivePages(dst []LPN, chip, block int) []LPN {
	perBlock := m.geo.PagesPerBlock()
	base := (chip*m.geo.BlocksPerChip + block) * perBlock
	for _, l := range m.reverse[base : base+perBlock] {
		if l != unmappedSlot {
			dst = append(dst, LPN(l))
		}
	}
	return dst
}
