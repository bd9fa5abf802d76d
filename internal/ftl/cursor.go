// Package ftl provides the flash-translation-layer infrastructure shared
// by every FTL flavor in this repository — page-level mapping, the write
// buffer, active-block cursors, program-order schemes (Fig 12), garbage
// collection, and the host-facing controller — plus the two PS-unaware
// baselines the paper compares against: pageFTL and vertFTL.
//
// The PS-aware cubeFTL (the paper's contribution) lives in package core
// and plugs into the same Policy interface.
package ftl

import (
	"fmt"

	"cubeftl/internal/pool"
)

// Order is a program-order scheme for word lines within a 3D block
// (paper Fig 12). The leading word line (index 0) of each h-layer is
// the "leader"; the rest are "followers" whose parameters PS-aware FTLs
// derive from the leader's measurements.
type Order int

const (
	// OrderHorizontalFirst programs each h-layer completely before the
	// next: w11 w12 w13 w14, w21 w22 ... (the conventional order).
	OrderHorizontalFirst Order = iota
	// OrderVerticalFirst programs each v-layer completely before the
	// next: w11 w21 w31 ..., w12 w22 ...
	OrderVerticalFirst
	// OrderMixed (MOS) keeps the leader cursor one h-layer ahead of the
	// follower cursor, maximizing the pool of programmable followers
	// while every follower still has a measured leader on its h-layer.
	OrderMixed
)

func (o Order) String() string {
	switch o {
	case OrderHorizontalFirst:
		return "horizontal-first"
	case OrderVerticalFirst:
		return "vertical-first"
	case OrderMixed:
		return "mixed(MOS)"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// BlockCursor tracks which word lines of one active block have been
// programmed and answers leader/follower availability questions for the
// allocation policies. Two lower bounds keep those answers from
// rescanning the block from h-layer 0 (the WAM asks on every flush):
// every h-layer below leaderLo has its leader programmed, and every
// h-layer below followerLo has no follower free behind a programmed
// leader. A query starts its scan at its bound and leaves the bound
// where the scan stopped.
//
// A controller recycles its cursors: one whose block has left the
// write points with no program into it in flight is released, and the
// next block opened takes it over (Controller.openCursor).
type BlockCursor struct {
	Chip  int
	Block int

	// Seq is the block sequence number assigned when the block was
	// opened for writing: globally monotonic across the device and
	// across power cycles. Every page programmed into the block carries
	// it in OOB, letting recovery order copies of the same logical page
	// that share a write stamp (GC relocations).
	Seq uint64

	// programs counts programs, host or relocation, issued into the
	// block and not yet completed (die.closing).
	programs int

	layers               int
	wlsPerLayer          int
	programmed           []bool // indexed layer*wlsPerLayer+wl
	used                 int
	leaderLo, followerLo int
	live                 bool // false while released for reuse
}

// NewBlockCursor returns a cursor over an erased block.
func NewBlockCursor(chip, block, layers, wlsPerLayer int) *BlockCursor {
	c := &BlockCursor{layers: layers, wlsPerLayer: wlsPerLayer, programmed: make([]bool, layers*wlsPerLayer)}
	c.reset(chip, block)
	return c
}

// reset points the cursor, keeping its shape and bitmap, at another
// erased block.
func (c *BlockCursor) reset(chip, block int) {
	*c = BlockCursor{Chip: chip, Block: block, layers: c.layers, wlsPerLayer: c.wlsPerLayer,
		programmed: c.programmed, live: true}
	clear(c.programmed)
}

// IsFree reports whether a word line is still erased.
func (c *BlockCursor) IsFree(layer, wl int) bool {
	return !c.programmed[layer*c.wlsPerLayer+wl]
}

// Take marks a word line programmed. Taking a taken word line panics —
// it means two writes were routed to the same physical location. A
// leader taken below followerLo opens its h-layer's followers, so the
// bound comes down to it: the WAM takes leaders in order, but a mount
// restores a block's word lines in whatever order the media lists them.
func (c *BlockCursor) Take(layer, wl int) {
	pool.CheckLive(c.live, "ftl block cursor")
	i := layer*c.wlsPerLayer + wl
	if c.programmed[i] {
		panic(fmt.Sprintf("ftl: double allocation of chip %d block %d layer %d wl %d",
			c.Chip, c.Block, layer, wl))
	}
	c.programmed[i] = true
	c.used++
	if wl == 0 && layer < c.followerLo {
		c.followerLo = layer
	}
}

// Full reports whether every word line is programmed.
func (c *BlockCursor) Full() bool { return c.used == len(c.programmed) }

// LeaderLayer returns the lowest h-layer whose leading word line is
// still free, or -1 if every leader is programmed.
func (c *BlockCursor) LeaderLayer() int {
	for ; c.leaderLo < c.layers; c.leaderLo++ {
		if c.IsFree(c.leaderLo, 0) {
			return c.leaderLo
		}
	}
	return -1
}

// FollowerSlot returns the lowest h-layer whose leader has been
// programmed and which still has a free follower word line, along with
// that word line's index. It returns (-1, -1) when no follower is
// available. Requiring the leader keeps every follower's parameters
// backed by a same-layer measurement.
func (c *BlockCursor) FollowerSlot() (layer, wl int) {
	for ; c.followerLo < c.layers; c.followerLo++ {
		l := c.followerLo
		if c.IsFree(l, 0) {
			continue // no leader measurement yet for this h-layer
		}
		for w := 1; w < c.wlsPerLayer; w++ {
			if c.IsFree(l, w) {
				return l, w
			}
		}
	}
	return -1, -1
}

// NextInOrder returns the next free word line under a static program
// order, or ok=false when the block is full.
func (c *BlockCursor) NextInOrder(o Order) (layer, wl int, ok bool) {
	switch o {
	case OrderHorizontalFirst:
		// The lowest h-layer with a free word line has a free leader or a
		// free follower behind a programmed leader, so it is not below
		// both bounds.
		for i := min(c.leaderLo, c.followerLo) * c.wlsPerLayer; i < len(c.programmed); i++ {
			if !c.programmed[i] {
				return i / c.wlsPerLayer, i % c.wlsPerLayer, true
			}
		}
	case OrderVerticalFirst:
		// Followers come once every leader is programmed, and then no
		// h-layer below followerLo has one free.
		if l := c.LeaderLayer(); l >= 0 {
			return l, 0, true
		}
		for w := 1; w < c.wlsPerLayer; w++ {
			for l := c.followerLo; l < c.layers; l++ {
				if c.IsFree(l, w) {
					return l, w, true
				}
			}
		}
	case OrderMixed:
		// Keep the leader cursor one h-layer ahead of the follower
		// cursor (w11, w21, w12 w13 w14, w31, w22 w23 w24, ...), so a
		// measured leader always exists for the next follower batch.
		leader := c.LeaderLayer()
		fl, fw := c.FollowerSlot()
		switch {
		case leader == -1 && fl == -1:
			return 0, 0, false
		case leader == -1:
			return fl, fw, true
		case fl == -1 || leader <= fl+1:
			return leader, 0, true
		default:
			return fl, fw, true
		}
	}
	return 0, 0, false
}
