package ftl_test

import (
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// A drained device settles: with the host idle, garbage collection runs
// only while a victim can win a block back. A relocation pads its last
// word line, so a victim whose live pages need every word line of a
// block frees nothing, and taking it again and again kept a die's free
// pool at its threshold forever. The device is the power-cut tests'
// (2x2 dies, 16 blocks of 8 h-layers, 96 pages a block) under the cube
// policy; a closed loop of uniform writes over all 5 376 logical pages
// leaves every die at or under its GC threshold with mostly full
// victims. The drain settles within a few dozen cycles; the budget is
// 1 000.
func TestDrainedDeviceSettles(t *testing.T) {
	eng := sim.NewEngine()
	scfg := ssd.DefaultConfig()
	scfg.Channels, scfg.DiesPerChannel = 2, 2
	scfg.Chip.Process.BlocksPerChip = 16
	scfg.Chip.Process.Layers = 8
	scfg.Seed = 1
	dev := ssd.New(eng, scfg)
	cfg := ftl.DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := ftl.NewController(dev, core.New(dev.Geometry()), cfg)
	if got := c.LogicalPages(); got != 5376 {
		t.Fatalf("%d logical pages, want the 5 376 the case was found on", got)
	}

	const writes, depth = 7910, 8
	src := rng.New(11)
	issued, done := 0, 0
	var next func()
	next = func() {
		if issued == writes {
			return
		}
		issued++
		if err := c.Write(ftl.LPN(src.Intn(c.LogicalPages())), nil, func() { done++; next() }); err != nil {
			t.Fatal(err)
		}
	}
	for range depth {
		next()
	}
	eng.RunWhile(func() bool { return done < writes })
	if done != writes {
		t.Fatalf("%d of %d writes completed:%s", done, writes, c.DieReport())
	}

	const budget = 1000
	start := c.Stats().GCCount
	eng.RunWhile(func() bool { return c.Stats().GCCount-start < budget })
	if n := eng.Pending(); n > 0 || !c.Drained() {
		t.Fatalf("%d GC cycles after the drain and %d events still pending: the device never settles:%s",
			c.Stats().GCCount-start, n, c.DieReport())
	}
	t.Logf("settled after %d GC cycles past the drain (%d in all)", c.Stats().GCCount-start, c.Stats().GCCount)
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
