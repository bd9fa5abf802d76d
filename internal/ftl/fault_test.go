package ftl

import (
	"errors"
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/vth"
)

// faultDevice builds a device for fault-handling tests: 2 chips, the
// given block count, 8 layers, with data storage enabled so VerifyData
// controllers can run the integrity oracle.
func faultDevice(seed uint64, blocks int) (*sim.Engine, *ssd.Device) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = blocks
	cfg.Chip.Process.Layers = 8
	cfg.Chip.StoreData = true
	cfg.Seed = seed
	return eng, ssd.New(eng, cfg)
}

// A targeted program failure on the first word line the controller
// touches: the data must be re-issued elsewhere, the block retired, and
// every page still verifiable.
func TestProgramFailureRecovery(t *testing.T) {
	eng, dev := faultDevice(7, 24)
	// The controller's first flush lands on chip 0, block 0 (the pool is
	// drained in block order), word line (0, 0).
	dev.SetChipFaults(0, nand.FaultConfig{ProgramFailAt: []nand.Address{{Block: 0, Layer: 0, WL: 0}}})
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)

	done := 0
	for lpn := LPN(0); lpn < 12; lpn++ {
		if err := c.Write(lpn, nil, func() { done++ }); err != nil {
			t.Fatalf("Write(%d): %v", lpn, err)
		}
	}
	eng.Run()
	if done != 12 {
		t.Fatalf("writes done = %d", done)
	}
	st := c.Stats()
	if st.ProgramFailures != 1 {
		t.Errorf("ProgramFailures = %d, want 1", st.ProgramFailures)
	}
	// The requeue counts with no telemetry attached.
	if st.RequeueProgramFail != 1 {
		t.Errorf("RequeueProgramFail = %d, want 1", st.RequeueProgramFail)
	}
	if st.RetiredBlocks != 1 {
		t.Errorf("RetiredBlocks = %d, want 1", st.RetiredBlocks)
	}
	if st.FaultRecoveries == 0 {
		t.Error("recovery not counted")
	}
	if !c.IsRetired(0, 0) {
		t.Error("failed block not retired")
	}
	// Every page survived the failure and reads back with the right tag.
	for lpn := LPN(0); lpn < 12; lpn++ {
		if c.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
			t.Fatalf("LPN %d lost after program failure", lpn)
		}
		c.Read(lpn, nil, func() {})
	}
	eng.Run()
	if st.DataMismatches != 0 {
		t.Errorf("DataMismatches = %d", st.DataMismatches)
	}
	if st.Uncorrectable != 0 {
		t.Errorf("Uncorrectable = %d", st.Uncorrectable)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// Erase failures during garbage collection must grow bad blocks without
// upsetting translation state.
func TestGCEraseFailureRetiresBlock(t *testing.T) {
	eng, dev := faultDevice(11, 24)
	dev.SetFaults(nand.FaultConfig{EraseFailRate: 0.5})
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)

	src := rng.New(5)
	n := c.LogicalPages() * 5 / 10
	ops := n * 6
	outstanding := 0
	var issue func()
	issue = func() {
		for outstanding < 12 && ops > 0 {
			ops--
			outstanding++
			err := c.Write(LPN(src.Intn(n)), nil, func() { outstanding--; issue() })
			if err != nil {
				// The 50% erase-failure rate may exhaust the device
				// mid-test; stop issuing and audit what remains.
				outstanding--
				ops = 0
			}
		}
	}
	issue()
	eng.Run()
	st := c.Stats()
	if st.GCCount == 0 {
		t.Fatal("GC never ran")
	}
	if st.EraseFailures == 0 {
		t.Error("50% erase-failure rate never fired")
	}
	if st.RetiredBlocks == 0 {
		t.Error("erase failures retired no blocks")
	}
	if st.FaultRecoveries == 0 {
		t.Error("recoveries not counted")
	}
	if st.DataMismatches != 0 {
		t.Errorf("DataMismatches = %d", st.DataMismatches)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// With every erase failing, the free pools can only shrink: the device
// must degrade to rejected writes — never a panic — while reads and
// trims keep working.
func TestDegradedModeReadOnly(t *testing.T) {
	eng, dev := faultDevice(3, 12)
	dev.SetFaults(nand.FaultConfig{EraseFailRate: 1})
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 16
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)

	src := rng.New(17)
	n := c.LogicalPages() * 4 / 10
	var degradedErr error
	issued := 0
	outstanding := 0
	var issue func()
	issue = func() {
		for outstanding < 8 && degradedErr == nil && issued < 500_000 {
			issued++
			outstanding++
			err := c.Write(LPN(src.Intn(n)), nil, func() { outstanding--; issue() })
			if err != nil {
				outstanding--
				degradedErr = err
			}
		}
	}
	issue()
	eng.Run()
	if degradedErr == nil {
		t.Fatal("device never degraded under total erase failure")
	}
	if !errors.Is(degradedErr, ErrDegraded) {
		t.Fatalf("write rejection = %v, want ErrDegraded", degradedErr)
	}
	if !c.Degraded() {
		t.Error("Degraded() = false after rejection")
	}
	st := c.Stats()
	if st.EraseFailures == 0 || st.RetiredBlocks == 0 {
		t.Errorf("EraseFailures = %d RetiredBlocks = %d", st.EraseFailures, st.RetiredBlocks)
	}
	if st.WriteRejects == 0 {
		t.Error("rejected writes not counted")
	}
	// The degraded device still serves reads and trims.
	reads := 0
	for lpn := LPN(0); lpn < 8; lpn++ {
		c.Read(lpn, nil, func() { reads++ })
	}
	c.Trim(0, nil)
	eng.Run()
	if reads != 8 {
		t.Errorf("reads completed = %d, want 8", reads)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// Factory-marked bad blocks must stay out of circulation from boot.
func TestFactoryBadBlocksExcluded(t *testing.T) {
	eng, dev := faultDevice(23, 64)
	dev.SetFaults(nand.FaultConfig{FactoryBadRate: 0.1})
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := NewController(dev, NewPagePolicy(), cfg)

	want := int64(0)
	for chip := 0; chip < 2; chip++ {
		for _, b := range dev.Die(chip).NAND.FactoryBadBlocks() {
			want++
			if !c.IsRetired(chip, b) {
				t.Errorf("factory bad block %d on chip %d not retired", b, chip)
			}
		}
	}
	if want == 0 {
		t.Fatal("10% factory bad rate marked no blocks")
	}
	if got := c.Stats().FactoryBadBlocks; got != want {
		t.Errorf("FactoryBadBlocks = %d, want %d", got, want)
	}
	for lpn := LPN(0); lpn < 300; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// closedLoop keeps depth host commands outstanding on c until ops of them
// have been issued, then runs eng until it stops and fails t, printing
// every die, unless c drained, or if a GC cycle could free nothing (gcProgress). Each command is
// at an LPN drawn below n from src: a trim one time in ten, a read reads
// times in ten, else a write, which c may not refuse.
func closedLoop(t *testing.T, eng *sim.Engine, c *Controller, src *rng.Source, n, ops, depth, reads int) {
	t.Helper()
	outstanding := 0
	var issue func()
	issue = func() {
		for outstanding < depth && ops > 0 {
			ops--
			outstanding++
			lpn := LPN(src.Intn(n))
			done := func() { outstanding--; issue() }
			switch k := src.Intn(10); {
			case k == 0:
				c.Trim(lpn, done)
			case k <= reads:
				c.Read(lpn, nil, done)
			default:
				if err := c.Write(lpn, nil, done); err != nil {
					t.Fatalf("host write refused: %v", err)
				}
			}
		}
	}
	issue()
	for eng.Step() {
		gcProgress(t, c)
	}
	if !c.Drained() {
		t.Fatalf("not drained:%s", c.DieReport())
	}
}

// gcProgress fails t if a GC cycle is moving a block with no invalid page:
// a cycle must free a page (or retire its victim, whose erase failed), or
// the one after it finds the die as this one did.
func gcProgress(t *testing.T, c *Controller) {
	for chip := range c.dies {
		cy := &c.dies[chip].cycle
		if cy.active && cy.cause == causeGC && c.mapper.ValidCount(chip, cy.victim) >= c.geo.PagesPerBlock() {
			t.Fatalf("GC on die %d is moving block %d, whose every page is valid", chip, cy.victim)
		}
	}
}

// Chaos soak: sustained program/erase/read fault rates over >=50k host
// writes with the end-to-end integrity oracle on. The FTL must absorb
// every fault — zero data mismatches, consistent translation state, and
// non-trivial retirement/recovery activity.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	eng, dev := faultDevice(42, 64)
	dev.SetFaults(nand.FaultConfig{
		ProgramFailRate: 1e-3,
		EraseFailRate:   1e-4,
		ReadFaultRate:   1e-3,
	})
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 64
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)

	n := c.LogicalPages() * 3 / 10
	closedLoop(t, eng, c, rng.New(1234), n, 85_000, 16, 3)
	st := c.Stats()
	if st.HostWrites < 50_000 {
		t.Fatalf("soak completed only %d host writes, want >= 50000", st.HostWrites)
	}
	if st.ProgramFailures == 0 {
		t.Error("1e-3 program-failure rate never fired")
	}
	if st.RetiredBlocks == 0 {
		t.Error("no blocks retired")
	}
	if st.FaultRecoveries == 0 {
		t.Error("no recoveries counted")
	}
	if st.ReadFaults == 0 {
		t.Error("1e-3 transient read-fault rate never fired")
	}
	if st.DataMismatches != 0 {
		t.Fatalf("DataMismatches = %d during soak", st.DataMismatches)
	}
	if c.Degraded() {
		t.Error("device degraded under moderate fault rates")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Full read-back sweep: every mapped page must verify.
	for lpn := LPN(0); lpn < LPN(n); lpn++ {
		if c.Mapper().Lookup(lpn) != ssd.UnmappedPPN {
			c.Read(lpn, nil, func() {})
		}
	}
	eng.Run()
	if st.DataMismatches != 0 {
		t.Fatalf("DataMismatches = %d after read-back sweep", st.DataMismatches)
	}
	t.Logf("soak: writes=%d pfail=%d efail=%d rfault=%d retired=%d recoveries=%d gc=%d",
		st.HostWrites, st.ProgramFailures, st.EraseFailures, st.ReadFaults,
		st.RetiredBlocks, st.FaultRecoveries, st.GCCount)
}

// A die that degrades while a program sits queued on the device's
// resources must fail that program at grant time (ErrDieFenced) instead
// of letting it write a read-only die: the data returns to the buffer
// and lands on a surviving die.
func TestDegradedFenceFailsQueuedPrograms(t *testing.T) {
	eng, dev := faultDevice(19, 24)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)

	// Two word-line groups: the first programs die 0 and holds the
	// shared channel for its page transfers; the second targets die 1
	// (inflight cap) and queues behind it on the channel resource.
	const pages = 2 * vth.PagesPerWL
	for lpn := LPN(0); lpn < pages; lpn++ {
		if err := c.Write(lpn, nil, func() {}); err != nil {
			t.Fatalf("Write(%d): %v", lpn, err)
		}
	}
	if c.dies[0].inflight != 1 || c.dies[1].inflight != 1 {
		t.Fatalf("inflight = %v, want one program per die", []int{c.dies[0].inflight, c.dies[1].inflight})
	}
	// Flip die 1 to degraded while its program is still waiting for a
	// grant (die 0's transfers hold the channel until 60us).
	eng.After(1000, func() {
		if c.dies[1].inflight != 1 {
			t.Error("die 1 program completed before the fence flipped")
		}
		c.markDieDegraded(1)
	})
	eng.Run()
	eng.RunWhile(func() bool { return !c.Drained() })

	st := c.Stats()
	if st.FencedPrograms != 1 {
		t.Fatalf("FencedPrograms = %d, want 1", st.FencedPrograms)
	}
	// The requeue counts with no telemetry attached, and ResetStats
	// zeroes it with the rest of the window.
	if st.RequeueFenced != 1 {
		t.Errorf("RequeueFenced = %d, want 1", st.RequeueFenced)
	}
	if c.ResetStats(); c.Stats().RequeueFenced != 0 {
		t.Errorf("RequeueFenced = %d after ResetStats, want 0", c.Stats().RequeueFenced)
	}
	if !c.DieDegraded(1) || c.DieDegraded(0) {
		t.Errorf("die degraded flags = [%v %v], want [false true]",
			c.DieDegraded(0), c.DieDegraded(1))
	}
	if c.Degraded() {
		t.Error("one degraded die forced the whole device read-only")
	}
	if st.DegradedDies != 1 {
		t.Errorf("DegradedDies = %d, want 1", st.DegradedDies)
	}
	// Every page of the fenced group must have been re-flushed onto the
	// surviving die — nothing programmed on die 1, nothing lost.
	geo := dev.Geometry()
	for lpn := LPN(0); lpn < pages; lpn++ {
		ppn := c.Mapper().Lookup(lpn)
		if ppn == ssd.UnmappedPPN {
			t.Fatalf("LPN %d lost across the fence transition", lpn)
		}
		if die, _, _, _, _ := geo.DecodePPN(ppn); die != 0 {
			t.Errorf("LPN %d mapped to fenced die %d", lpn, die)
		}
	}
	if got := dev.Die(1).NAND.Stats().Programs; got != 0 {
		t.Errorf("fenced die executed %d programs", got)
	}
	// The device keeps writing on the survivor, and data verifies.
	for lpn := LPN(0); lpn < pages; lpn++ {
		if err := c.Write(lpn, nil, func() {}); err != nil {
			t.Fatalf("post-fence Write(%d): %v", lpn, err)
		}
	}
	eng.Run()
	eng.RunWhile(func() bool { return !c.Drained() })
	for lpn := LPN(0); lpn < pages; lpn++ {
		c.Read(lpn, nil, func() {})
	}
	eng.Run()
	if st.DataMismatches != 0 {
		t.Errorf("DataMismatches = %d", st.DataMismatches)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// Die-kill chaos soak on a 2-channel x 4-die array: one die fails every
// program and erase (a dead die). Only that die's blocks may retire, it
// must degrade alone, and the device keeps serving reads and writes on
// the seven survivors with the integrity oracle clean.
func TestChaosSoakDieKill(t *testing.T) {
	if testing.Short() {
		t.Skip("die-kill soak skipped in -short mode")
	}
	eng := sim.NewEngine()
	devCfg := ssd.DefaultConfig()
	devCfg.Channels = 2
	devCfg.DiesPerChannel = 4
	devCfg.Chip.Process.BlocksPerChip = 48
	devCfg.Chip.Process.Layers = 8
	devCfg.Chip.StoreData = true
	devCfg.Seed = 99
	dev := ssd.New(eng, devCfg)
	const deadDie = 3
	dev.SetChipFaults(deadDie, nand.FaultConfig{ProgramFailRate: 1, EraseFailRate: 1})

	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 64
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)

	n := c.LogicalPages() * 3 / 10
	closedLoop(t, eng, c, rng.New(4242), n, 40_000, 16, 3)
	st := c.Stats()
	if !c.DieDegraded(deadDie) {
		t.Error("dead die never degraded")
	}
	if c.Degraded() {
		t.Error("one dead die forced the whole device read-only")
	}
	if st.DegradedDies != 1 {
		t.Errorf("DegradedDies = %d, want 1", st.DegradedDies)
	}
	for die := 0; die < dev.Dies(); die++ {
		retired := 0
		for b := 0; b < devCfg.Chip.Process.BlocksPerChip; b++ {
			if c.IsRetired(die, b) {
				retired++
			}
		}
		if die == deadDie && retired == 0 {
			t.Error("dead die retired no blocks")
		}
		if die != deadDie && retired != 0 {
			t.Errorf("healthy die %d retired %d blocks", die, retired)
		}
	}
	// Nothing may be mapped on the dead die: every program on it failed.
	geo := dev.Geometry()
	for lpn := LPN(0); lpn < LPN(n); lpn++ {
		if ppn := c.Mapper().Lookup(lpn); ppn != ssd.UnmappedPPN {
			if die, _, _, _, _ := geo.DecodePPN(ppn); die == deadDie {
				t.Fatalf("LPN %d mapped to the dead die", lpn)
			}
		}
	}
	if st.DataMismatches != 0 {
		t.Fatalf("DataMismatches = %d with one dead die", st.DataMismatches)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The device is still writable after the die died.
	wrote := 0
	for lpn := LPN(0); lpn < 32; lpn++ {
		if err := c.Write(lpn, nil, func() { wrote++ }); err != nil {
			t.Fatalf("post-kill write: %v", err)
		}
	}
	eng.Run()
	eng.RunWhile(func() bool { return !c.Drained() })
	if wrote != 32 {
		t.Errorf("post-kill writes completed = %d, want 32", wrote)
	}
	t.Logf("die-kill soak: writes=%d pfail=%d efail=%d retired=%d degradedDies=%d fenced=%d",
		st.HostWrites, st.ProgramFailures, st.EraseFailures,
		st.RetiredBlocks, st.DegradedDies, st.FencedPrograms)
}
