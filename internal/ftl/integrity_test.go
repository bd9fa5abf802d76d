package ftl

import (
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

func verifyingController(seed uint64) (*sim.Engine, *Controller) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = 24
	cfg.Chip.Process.Layers = 8
	cfg.Chip.StoreData = true
	cfg.Seed = seed
	dev := ssd.New(eng, cfg)
	ccfg := DefaultControllerConfig()
	ccfg.WriteBufferPages = 24
	ccfg.VerifyData = true
	return eng, NewController(dev, NewPagePolicy(), ccfg)
}

func TestPageTagRoundTrip(t *testing.T) {
	b := MakePageTag(12345, 99)
	lpn, seq, ok := ParsePageTag(b)
	if !ok || lpn != 12345 || seq != 99 {
		t.Fatalf("round trip = %d %d %v", lpn, seq, ok)
	}
	if _, _, ok := ParsePageTag([]byte{1, 2, 3}); ok {
		t.Fatal("short payload accepted")
	}
}

func TestIntegrityBasicReadBack(t *testing.T) {
	eng, c := verifyingController(3)
	for lpn := LPN(0); lpn < 40; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	for lpn := LPN(0); lpn < 40; lpn++ {
		c.Read(lpn, nil, func() {})
	}
	eng.Run()
	if c.Stats().DataMismatches != 0 {
		t.Fatalf("data mismatches = %d", c.Stats().DataMismatches)
	}
	// All reads hit flash (buffer drained), so the oracle really ran.
	if flash := c.Stats().HostReads - c.Stats().BufferHits - c.Stats().UnmappedReads; flash != 40 {
		t.Fatalf("flash reads = %d", flash)
	}
}

// The strongest end-to-end test in the repository: a hostile mix of
// overwrites, trims, and reads across many GC cycles, with every flash
// read's payload checked against the translation state.
func TestIntegritySoakThroughGC(t *testing.T) {
	eng, c := verifyingController(9)
	n := c.LogicalPages() * 5 / 10
	closedLoop(t, eng, c, rng.New(17), n, n*10, 12, 4)
	st := c.Stats()
	if st.GCCount == 0 {
		t.Fatal("soak did not exercise GC relocation")
	}
	if st.GCPageMoves == 0 {
		t.Fatal("no pages relocated")
	}
	if st.DataMismatches != 0 {
		t.Fatalf("data mismatches = %d after %d reads (%d GC moves)",
			st.DataMismatches, st.HostReads, st.GCPageMoves)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	t.Logf("verified %d flash reads across %d GC runs (%d page moves)",
		st.HostReads-st.BufferHits-st.UnmappedReads, st.GCCount, st.GCPageMoves)
}

// The oracle must actually detect corruption: deliberately install a
// wrong mapping and confirm the next read trips it.
func TestIntegrityDetectsCorruption(t *testing.T) {
	eng, c := verifyingController(5)
	for lpn := LPN(0); lpn < 6; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	// Cross-wire LPN 0 to LPN 1's physical page.
	wrong := c.Mapper().Lookup(1)
	c.Mapper().Invalidate(0)
	c.Mapper().Invalidate(1)
	c.Mapper().Map(0, wrong)
	c.Read(0, nil, func() {})
	eng.Run()
	if c.Stats().DataMismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", c.Stats().DataMismatches)
	}
}

// A read answers with the version it was issued against. Held behind an
// erase on its plane while the page is overwritten, flushed to the other
// die and remapped, it completes after the newer mapping is installed
// and returns the older data — legally, the host sent it first. The
// oracle checks the payload against the stamp live at issue.
func TestIntegrityReadOvertakenByOverwrite(t *testing.T) {
	eng, c := verifyingController(3)
	for lpn := LPN(0); lpn < 3; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	chip, _, _, _, _ := c.geo.DecodePPN(c.Mapper().Lookup(0))
	old := c.StampOf(0)
	// A long hold on the die LPN 0 landed on: erase one of its free blocks.
	c.dev.Erase(chip, c.dies[chip].free[0], func(nand.EraseResult, error) {})
	readDoneAt := sim.Time(-1)
	c.Read(0, nil, func() { readDoneAt = eng.Now() })
	for _, lpn := range []LPN{0, 10, 11} {
		c.Write(lpn, nil, func() {})
	}
	remappedAt := sim.Time(-1)
	eng.RunWhile(func() bool {
		if remappedAt < 0 && c.StampOf(0) != old {
			remappedAt = eng.Now()
		}
		return true
	})
	if remappedAt < 0 || readDoneAt <= remappedAt {
		t.Fatalf("the read (done at %d) did not outlast the remap (at %d): the scenario is gone", readDoneAt, remappedAt)
	}
	if n := c.Stats().DataMismatches; n != 0 {
		t.Fatalf("DataMismatches = %d for a read that returned the version it was issued against", n)
	}
	// The newer version is what a read issued now sees.
	c.Read(0, nil, func() {})
	eng.Run()
	if n := c.Stats().DataMismatches; n != 0 {
		t.Fatalf("DataMismatches = %d after re-reading the overwritten page", n)
	}
}
