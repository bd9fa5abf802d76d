package recovery

import (
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// Small-but-complete device for power-cut tests: 2 channels x 2 dies,
// 16 blocks per die, 8 h-layers, data storage on so the verifier can
// audit payloads.
func cutSSDConfig(seed uint64) ssd.Config {
	cfg := ssd.DefaultConfig()
	cfg.Channels = 2
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = 16
	cfg.Chip.Process.Layers = 8
	cfg.Chip.StoreData = true
	cfg.Seed = seed
	return cfg
}

func cutCtrlConfig() ftl.ControllerConfig {
	cfg := ftl.DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true
	cfg.DurableAcks = true
	return cfg
}

// remountFrom rebuilds the device from a cut's image on a fresh engine.
func remountFrom(t *testing.T, seed uint64, img Image, force bool) (*ftl.Controller, MountReport) {
	t.Helper()
	eng := sim.NewEngine()
	dev := ssd.NewWithArray(eng, cutSSDConfig(seed), img.Array)
	ctrl, rpt, err := Mount(dev, core.New(dev.Geometry()), cutCtrlConfig(), img.System, MountOptions{ForceFullScan: force})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return ctrl, rpt
}

// A grown bad block must stay retired across a power cycle: the
// Retired journal record makes the retirement durable, and the media
// bad-block mark backstops it even on a full scan.
func TestBadBlockSurvivesPowerCycle(t *testing.T) {
	const seed = 5
	eng := sim.NewEngine()
	dev := ssd.New(eng, cutSSDConfig(seed))
	// One-shot program failure at the first word line the controller
	// touches on die 0: block 0 is retired and its data re-issued.
	dev.SetChipFaults(0, nand.FaultConfig{ProgramFailAt: []nand.Address{{Block: 0, Layer: 0, WL: 0}}})
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	led := NewLedger()
	mgr := Attach(ctrl, NewSystemArea(), Options{Ledger: led})

	done := 0
	for lpn := ftl.LPN(0); lpn < 24; lpn++ {
		if err := ctrl.Write(lpn, nil, func() { done++ }); err != nil {
			t.Fatalf("Write(%d): %v", lpn, err)
		}
	}
	eng.RunWhile(func() bool { return !ctrl.Drained() })
	if done != 24 {
		t.Fatalf("writes done = %d", done)
	}
	if !ctrl.IsRetired(0, 0) {
		t.Fatal("block (0,0) not retired after program failure")
	}
	// Let the journal flush settle, then cut, once for each mount.
	eng.RunUntil(eng.Now() + 2*JournalFlushNs)
	for _, force := range []bool{false, true} {
		ctrl2, _ := remountFrom(t, seed, mgr.Cut(), force)
		if !ctrl2.IsRetired(0, 0) {
			t.Errorf("force=%v: retired block came back after power cycle", force)
		}
		if err := Verify(ctrl2, led); err != nil {
			t.Errorf("force=%v: %v", force, err)
		}
	}
}

// A degraded (fenced) die must stay fenced after a power cycle, and
// post-mount writes must land on the healthy dies.
func TestDegradedDieSurvivesPowerCycle(t *testing.T) {
	const seed, deadDie = 9, 1
	eng := sim.NewEngine()
	dev := ssd.New(eng, cutSSDConfig(seed))
	dev.SetChipFaults(deadDie, nand.FaultConfig{ProgramFailRate: 1, EraseFailRate: 1})
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	led := NewLedger()
	mgr := Attach(ctrl, NewSystemArea(), Options{Ledger: led})

	hammer(t, ctrl, 31, 6000)
	if !ctrl.DieDegraded(deadDie) {
		t.Fatal("dead die never degraded")
	}
	eng.RunUntil(eng.Now() + 2*JournalFlushNs)
	ctrl2, _ := remountFrom(t, seed, mgr.Cut(), false)
	if !ctrl2.DieDegraded(deadDie) {
		t.Fatal("die degradation lost across power cycle")
	}
	if !ctrl2.Device().DieFenced(deadDie) {
		t.Fatal("degraded die not re-fenced at mount")
	}
	if err := Verify(ctrl2, led); err != nil {
		t.Fatal(err)
	}

	// Requeued writes after the mount must land on healthy dies only.
	eng2 := ctrl2.Engine()
	geo := ctrl2.Device().Geometry()
	written := []ftl.LPN{1, 2, 3, 4, 5, 6, 7, 8}
	for _, lpn := range written {
		if err := ctrl2.Write(lpn, nil, func() {}); err != nil {
			t.Fatalf("post-mount write: %v", err)
		}
	}
	eng2.RunWhile(func() bool { return !ctrl2.Drained() })
	for _, lpn := range written {
		ppn := ctrl2.Mapper().Lookup(lpn)
		if ppn == ssd.UnmappedPPN {
			t.Fatalf("post-mount write of LPN %d lost", lpn)
		}
		chip, _, _, _, _ := geo.DecodePPN(ppn)
		if chip == deadDie {
			t.Errorf("post-mount write of LPN %d landed on the fenced die", lpn)
		}
	}
	if err := ctrl2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
