package ftl

import (
	"testing"

	"cubeftl/internal/rng"
)

// The scans BlockCursor answered with before it kept its lower bounds:
// every query walked the block from h-layer 0. They are the reference
// TestCursorBoundsMatchScans holds the bounded queries to.

func refLeaderLayer(c *BlockCursor) int {
	for l := 0; l < c.layers; l++ {
		if c.IsFree(l, 0) {
			return l
		}
	}
	return -1
}

func refFollowerSlot(c *BlockCursor) (layer, wl int) {
	for l := 0; l < c.layers; l++ {
		if c.IsFree(l, 0) {
			continue
		}
		for w := 1; w < c.wlsPerLayer; w++ {
			if c.IsFree(l, w) {
				return l, w
			}
		}
	}
	return -1, -1
}

func refNextInOrder(c *BlockCursor, o Order) (layer, wl int, ok bool) {
	switch o {
	case OrderHorizontalFirst:
		for i := range c.programmed {
			if !c.programmed[i] {
				return i / c.wlsPerLayer, i % c.wlsPerLayer, true
			}
		}
	case OrderVerticalFirst:
		for w := 0; w < c.wlsPerLayer; w++ {
			for l := 0; l < c.layers; l++ {
				if c.IsFree(l, w) {
					return l, w, true
				}
			}
		}
	case OrderMixed:
		leader := refLeaderLayer(c)
		fl, fw := refFollowerSlot(c)
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

// TestCursorBoundsMatchScans fills seeded blocks of several shapes word
// line by word line and, before every Take, asks each query in a random
// order — the bounded queries move their bounds, so the order they are
// asked in matters — comparing every answer with the from-zero scan. The
// word line taken next is what a static order or the WAM would pick, or
// any free one: a mount restores a block in media order, which takes
// leaders below both bounds.
func TestCursorBoundsMatchScans(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 4}, {3, 1}, {5, 2}, {8, 4}, {48, 4}}
	orders := []Order{OrderHorizontalFirst, OrderVerticalFirst, OrderMixed}
	src := rng.New(27)
	for block := 0; block < 3000; block++ {
		shape := shapes[block%len(shapes)]
		c := NewBlockCursor(0, block, shape[0], shape[1])
		for step := 0; ; step++ {
			for q := 0; q < 5; q++ {
				switch k := src.Intn(5); k {
				case 0:
					if got, want := c.LeaderLayer(), refLeaderLayer(c); got != want {
						t.Fatalf("block %d %v step %d: LeaderLayer %d, scan %d", block, shape, step, got, want)
					}
				case 1:
					gl, gw := c.FollowerSlot()
					if wl, ww := refFollowerSlot(c); gl != wl || gw != ww {
						t.Fatalf("block %d %v step %d: FollowerSlot (%d,%d), scan (%d,%d)", block, shape, step, gl, gw, wl, ww)
					}
				default:
					o := orders[k-2]
					gl, gw, gok := c.NextInOrder(o)
					if wl, ww, wok := refNextInOrder(c, o); gl != wl || gw != ww || gok != wok {
						t.Fatalf("block %d %v step %d: NextInOrder(%v) (%d,%d,%v), scan (%d,%d,%v)",
							block, shape, step, o, gl, gw, gok, wl, ww, wok)
					}
				}
			}
			if c.Full() {
				break
			}
			l, w := -1, -1
			switch k := src.Intn(6); {
			case k < 3:
				if ol, ow, ok := refNextInOrder(c, orders[k]); ok {
					l, w = ol, ow
				}
			case k == 3: // the WAM below its threshold: leaders first
				if l, w = refLeaderLayer(c), 0; l < 0 {
					l, w = refFollowerSlot(c)
				}
			case k == 4: // the WAM in a burst: followers first
				if l, w = refFollowerSlot(c); l < 0 {
					l, w = refLeaderLayer(c), 0
				}
			}
			if l < 0 {
				// Any free word line, as a mount restores them.
				for l, w = src.Intn(c.layers), src.Intn(c.wlsPerLayer); !c.IsFree(l, w); {
					l, w = src.Intn(c.layers), src.Intn(c.wlsPerLayer)
				}
			}
			c.Take(l, w)
		}
	}
}
