package ftl

import (
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/ssd"
)

func TestTrim(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	for lpn := LPN(0); lpn < 12; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	done := false
	c.Trim(5, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("trim completion never fired")
	}
	if c.Mapper().Lookup(5) != ssd.UnmappedPPN {
		t.Fatal("trimmed LPN still mapped")
	}
	if c.Stats().Trims != 1 {
		t.Errorf("trims = %d", c.Stats().Trims)
	}
	// Trimming unmapped or out-of-range LPNs is harmless.
	c.Trim(5, nil)
	c.Trim(-1, nil)
	c.Trim(LPN(c.LogicalPages()), nil)
	eng.Run()
	// A read of a trimmed page behaves like an unmapped read.
	c.Read(5, nil, func() {})
	eng.Run()
	if c.Stats().UnmappedReads != 1 {
		t.Errorf("unmapped reads = %d", c.Stats().UnmappedReads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A trim supersedes a buffered copy the way an overwrite does: a queued
// page is not flushed, a page whose program is in flight settles stale,
// and a durable write held for either is acknowledged with the trim.
func TestTrimForgetsTheBufferedCopy(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.Write(5, nil, func() {}) // queued: a partial group waits for the timer
	c.Trim(5, nil)
	if c.buf.Occupied() != 0 || c.buf.Contains(5) {
		t.Fatalf("after the trim the buffer holds %d pages", c.buf.Occupied())
	}
	for lpn := LPN(6); lpn < 9; lpn++ { // a whole word line: issued at once
		c.Write(lpn, nil, func() {})
	}
	c.Trim(7, nil)
	if c.buf.Contains(7) {
		t.Error("a page trimmed in flight still reads from the buffer")
	}
	eng.Run()
	for lpn, want := range map[LPN]bool{5: false, 6: true, 7: false, 8: true} {
		if got := c.Mapper().Lookup(lpn) != ssd.UnmappedPPN; got != want {
			t.Errorf("LPN %d mapped = %v, want %v", lpn, got, want)
		}
	}
	if st := c.Stats(); st.Programs != 1 || c.buf.Occupied() != 0 {
		t.Errorf("%d programs, %d pages left in the buffer; want 1 and 0", st.Programs, c.buf.Occupied())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	eng, c, h := durableAckController(3)
	acked := map[LPN]bool{}
	for _, lpn := range []LPN{1, 2, 3, 4} { // 1-3 in flight, 4 queued
		if err := c.Write(lpn, nil, func() { acked[lpn] = true }); err != nil {
			t.Fatal(err)
		}
	}
	c.Trim(2, nil)
	c.Trim(4, nil)
	if !acked[2] || !acked[4] || acked[1] || c.PendingAckCount() != 2 {
		t.Fatalf("at the trims: acked %v with %d held; want 2 and 4 acked, 1 and 3 held", acked, c.PendingAckCount())
	}
	eng.RunWhile(func() bool { return !c.Drained() })
	if len(acked) != 4 || len(h.mapped) != 2 || c.Mapper().Lookup(2) != ssd.UnmappedPPN {
		t.Fatalf("drained: acked %v, mapped %v; want every write acked and only 1 and 3 mapped", acked, h.mapped)
	}
}

func TestConsistencyAfterCleanRun(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	for lpn := LPN(0); lpn < 60; lpn++ {
		c.Write(lpn%30, nil, func() {})
	}
	eng.Run()
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A long, hostile mix of writes, overwrites, trims, and reads across
// multiple GC cycles must leave the translation state exactly
// consistent for every policy flavor.
func TestConsistencySoak(t *testing.T) {
	for _, pol := range []Policy{NewPagePolicy(), NewVertPolicy()} {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			eng, dev := testDevice(21)
			cfg := DefaultControllerConfig()
			cfg.WriteBufferPages = 24
			c := NewController(dev, pol, cfg)
			n := c.LogicalPages() * 5 / 10
			closedLoop(t, eng, c, rng.New(77), n, n*8, 12, 2)
			if c.Stats().GCCount == 0 {
				t.Fatal("soak did not exercise GC")
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConsistencyRejectsUndrained(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.Write(1, nil, func() {})
	_ = eng // intentionally not run: buffer still holds the write
	if err := c.CheckConsistency(); err == nil {
		t.Fatal("consistency check passed on a non-drained controller")
	}
}

// Wear-aware allocation must spread erases across blocks far more
// evenly than the default LIFO free pool under a hot overwrite loop.
func TestWearLeveling(t *testing.T) {
	spread := func(wearAware bool) int {
		eng, dev := testDevice(41)
		cfg := DefaultControllerConfig()
		cfg.WriteBufferPages = 24
		cfg.WearAware = wearAware
		c := NewController(dev, NewPagePolicy(), cfg)
		src := rng.New(5)
		hot := 128 // pages, far below capacity: a pathological hot set
		for i := 0; i < hot*500; i++ {
			c.Write(LPN(src.Intn(hot)), nil, func() {})
			if i%512 == 511 {
				eng.Run()
			}
		}
		eng.Run()
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		if c.Stats().GCCount == 0 {
			t.Fatal("hot loop did not trigger GC")
		}
		min, max := c.WearSpread()
		return max - min
	}
	lifo := spread(false)
	wear := spread(true)
	if wear >= lifo {
		t.Fatalf("wear-aware spread %d not better than LIFO %d", wear, lifo)
	}
	t.Logf("P/E spread: LIFO %d, wear-aware %d", lifo, wear)
}

// Hammering reads at one block must eventually trigger a read-disturb
// reclaim that relocates the data and resets the counter.
func TestReadReclaim(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	// Enough writes that LPN 0's block retires from the write point
	// (reclaim never touches active blocks).
	for lpn := LPN(0); lpn < 200; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	before := c.Mapper().Lookup(0)
	// Hammer reads well past the disturb budget. Run in slabs to keep
	// the event calendar small.
	total := nand.ReadDisturbBudget * 11 / 10
	for i := 0; i < total; i += 2000 {
		for j := 0; j < 2000; j++ {
			c.Read(0, nil, func() {})
		}
		eng.Run()
	}
	if c.Stats().Reclaims == 0 {
		t.Fatal("read hammering never triggered a reclaim")
	}
	after := c.Mapper().Lookup(0)
	if after == before {
		t.Error("reclaim did not relocate the hammered page")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestReadReclaimDisabled(t *testing.T) {
	eng, dev := testDevice(7)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.DisableReadReclaim = true
	c := NewController(dev, NewPagePolicy(), cfg)
	for lpn := LPN(0); lpn < 6; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	total := nand.ReadDisturbBudget * 11 / 10
	for i := 0; i < total; i += 2000 {
		for j := 0; j < 2000; j++ {
			c.Read(0, nil, func() {})
		}
		eng.Run()
	}
	if c.Stats().Reclaims != 0 {
		t.Fatal("reclaim ran despite being disabled")
	}
}
