package ftl

import (
	"testing"
	"testing/quick"

	"cubeftl/internal/rng"
)

func TestOrderStrings(t *testing.T) {
	if OrderHorizontalFirst.String() != "horizontal-first" ||
		OrderVerticalFirst.String() != "vertical-first" ||
		OrderMixed.String() != "mixed(MOS)" {
		t.Error("order names wrong")
	}
	if Order(99).String() == "" {
		t.Error("unknown order has empty name")
	}
}

func TestHorizontalFirstOrder(t *testing.T) {
	c := NewBlockCursor(0, 0, 3, 4)
	var got []int
	for {
		l, w, ok := c.NextInOrder(OrderHorizontalFirst)
		if !ok {
			break
		}
		c.Take(l, w)
		got = append(got, l*4+w)
	}
	if len(got) != 12 {
		t.Fatalf("programmed %d WLs", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("horizontal-first order = %v", got)
		}
	}
}

func TestVerticalFirstOrder(t *testing.T) {
	c := NewBlockCursor(0, 0, 3, 2)
	want := [][2]int{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	for i := 0; ; i++ {
		l, w, ok := c.NextInOrder(OrderVerticalFirst)
		if !ok {
			if i != len(want) {
				t.Fatalf("stopped after %d", i)
			}
			break
		}
		if [2]int{l, w} != want[i] {
			t.Fatalf("step %d = (%d,%d), want %v", i, l, w, want[i])
		}
		c.Take(l, w)
	}
}

// MOS keeps the leader cursor ahead: every follower programmed must have
// its h-layer leader already programmed, and the block must fill fully.
func TestMixedOrderInvariants(t *testing.T) {
	c := NewBlockCursor(0, 0, 8, 4)
	leaderDone := make([]bool, 8)
	count := 0
	for {
		l, w, ok := c.NextInOrder(OrderMixed)
		if !ok {
			break
		}
		if w == 0 {
			leaderDone[l] = true
		} else if !leaderDone[l] {
			t.Fatalf("follower (%d,%d) before its leader", l, w)
		}
		c.Take(l, w)
		count++
	}
	if count != 32 {
		t.Fatalf("MOS programmed %d of 32 WLs", count)
	}
	if !c.Full() {
		t.Fatal("cursor not full")
	}
}

// MOS must expose followers much earlier than horizontal-first: after
// programming 2 WLs, a follower must already be available.
func TestMixedOrderFollowerAvailability(t *testing.T) {
	c := NewBlockCursor(0, 0, 48, 4)
	for i := 0; i < 2; i++ {
		l, w, _ := c.NextInOrder(OrderMixed)
		c.Take(l, w)
	}
	if l, _ := c.FollowerSlot(); l < 0 {
		t.Fatal("no follower available after 2 MOS programs")
	}
}

func TestLeaderAndFollowerQueries(t *testing.T) {
	c := NewBlockCursor(0, 0, 4, 4)
	if c.LeaderLayer() != 0 {
		t.Errorf("LeaderLayer = %d", c.LeaderLayer())
	}
	if l, _ := c.FollowerSlot(); l != -1 {
		t.Errorf("FollowerSlot on empty block = %d", l)
	}
	c.Take(0, 0)
	if c.LeaderLayer() != 1 {
		t.Errorf("LeaderLayer = %d", c.LeaderLayer())
	}
	if l, w := c.FollowerSlot(); l != 0 || w != 1 {
		t.Errorf("FollowerSlot = (%d,%d)", l, w)
	}
	// Fill layer 0's followers.
	c.Take(0, 1)
	c.Take(0, 2)
	c.Take(0, 3)
	if l, _ := c.FollowerSlot(); l != -1 {
		t.Errorf("FollowerSlot = %d, want none", l)
	}
	// Exhaust all leaders.
	for l := 1; l < 4; l++ {
		c.Take(l, 0)
	}
	if c.LeaderLayer() != -1 {
		t.Error("LeaderLayer should be exhausted")
	}
	if l, w := c.FollowerSlot(); l != 1 || w != 1 {
		t.Errorf("FollowerSlot = (%d,%d)", l, w)
	}
}

func TestTakeDoublePanics(t *testing.T) {
	c := NewBlockCursor(0, 0, 2, 2)
	c.Take(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Take did not panic")
		}
	}()
	c.Take(1, 1)
}

// remaining is the number of c's free word lines.
func remaining(c *BlockCursor) int { return len(c.programmed) - c.used }

func TestRemaining(t *testing.T) {
	c := NewBlockCursor(0, 0, 2, 3)
	if remaining(c) != 6 {
		t.Errorf("Remaining = %d", remaining(c))
	}
	c.Take(0, 0)
	if remaining(c) != 5 || c.Full() {
		t.Error("Remaining/Full wrong after one Take")
	}
}

// Property: every order fills the whole block exactly once, even when
// interleaved with random out-of-order Takes (as WAM does).
func TestQuickOrdersAlwaysFill(t *testing.T) {
	f := func(seed uint64, orderRaw uint8) bool {
		order := Order(orderRaw % 3)
		src := rng.New(seed)
		c := NewBlockCursor(0, 0, 6, 4)
		steps := 0
		for !c.Full() {
			steps++
			if steps > 100 {
				return false
			}
			// Occasionally take a random free WL out of order.
			if src.Bool(0.3) {
				l, w := src.Intn(6), src.Intn(4)
				if c.IsFree(l, w) {
					c.Take(l, w)
				}
				continue
			}
			l, w, ok := c.NextInOrder(order)
			if !ok {
				return false // must always find a WL while not full
			}
			if !c.IsFree(l, w) {
				return false
			}
			c.Take(l, w)
		}
		return remaining(c) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
