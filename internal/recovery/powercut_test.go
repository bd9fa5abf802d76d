package recovery

import (
	"bytes"
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/workload"
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

// launch builds the device, prefills half the logical space (before
// recovery attaches, so the genesis checkpoint covers it), attaches
// the recovery manager, and drives the Mixed profile. deadline 0 runs
// to completion; a positive deadline parks the device mid-flight at
// that instant, ready for a power cut.
func launch(t *testing.T, seed uint64, requests int, deadline sim.Time) (*ftl.Controller, *Manager, *Ledger) {
	t.Helper()
	return launchEvery(t, seed, requests, deadline, 2*sim.Millisecond)
}

// launchEvery is launch with a checkpoint every interval.
func launchEvery(t *testing.T, seed uint64, requests int, deadline, interval sim.Time) (*ftl.Controller, *Manager, *Ledger) {
	t.Helper()
	eng := sim.NewEngine()
	dev := ssd.New(eng, cutSSDConfig(seed))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	workload.Prefill(ctrl, int64(ctrl.LogicalPages()/2))
	led := NewLedger()
	mgr := Attach(ctrl, NewSystemArea(), Options{Ledger: led, CkptIntervalNs: interval})
	specs := []workload.TenantSpec{{
		Gen:      workload.NewStream(workload.Mixed, ctrl.LogicalPages(), seed+0x9E37),
		Requests: requests,
		Queue:    host.QueueConfig{Name: "mixed", Depth: 32},
	}}
	if _, err := workload.RunTenants(ctrl, specs, workload.MultiRunConfig{DeadlineNs: deadline}); err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	return ctrl, mgr, led
}

// remount rebuilds the device from the surviving media and system area
// on a fresh engine.
func remountFrom(t *testing.T, seed uint64, array *nand.Array, sys *SystemArea, force bool) (*ftl.Controller, MountReport) {
	t.Helper()
	eng := sim.NewEngine()
	dev := ssd.NewWithArray(eng, cutSSDConfig(seed), array)
	ctrl, rpt, err := Mount(dev, core.New(dev.Geometry()), cutCtrlConfig(), sys, MountOptions{ForceFullScan: force})
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return ctrl, rpt
}

// cutAndRecover cuts power at cutAt, remounts, verifies, and returns
// the canonical recovered-state bytes (the post-mount checkpoint).
func cutAndRecover(t *testing.T, seed uint64, requests int, cutAt sim.Time, force bool) ([]byte, MountReport) {
	t.Helper()
	ctrl, mgr, led := launch(t, seed, requests, cutAt)
	mgr.PowerCut()
	ctrl2, rpt := remountFrom(t, seed, ctrl.Device().Array(), mgr.System(), force)
	if !ctrl2.Drained() {
		t.Fatalf("cut@%d: recovered controller not drained", cutAt)
	}
	if err := Verify(ctrl2, led); err != nil {
		t.Fatalf("cut@%d: %v", cutAt, err)
	}
	mgr2 := Attach(ctrl2, NewSystemArea(), Options{Ledger: NewLedger()})
	return mgr2.StateBytes(), rpt
}

// The acceptance sweep: 25 seed-derived random cut points plus
// directed cuts in the middle of GC and checkpoint windows. Every cut
// must recover to a state that passes the full verifier: zero lost
// acked writes, zero L2P/OOB disagreements, balanced page accounting.
func TestPowerCutSweep(t *testing.T) {
	const seed = 42
	const requests = 6000

	// Probe pass: same seed, no cut. Its GC and checkpoint windows
	// locate the riskiest instants; the sim is deterministic, so the
	// cut runs replay the identical schedule up to the cut.
	ctrl0, mgr0, led0 := launch(t, seed, requests, 0)
	total := ctrl0.Engine().Now()
	if err := Verify(ctrl0, led0); err != nil {
		t.Fatalf("probe run does not verify: %v", err)
	}
	gcw := ctrl0.GCWindows()
	ckw := mgr0.CkptWindows()
	if len(gcw) == 0 {
		t.Fatal("probe run never ran GC — sweep cannot cover mid-GC cuts")
	}
	if len(ckw) == 0 {
		t.Fatal("probe run never checkpointed — sweep cannot cover mid-checkpoint cuts")
	}

	var cuts []sim.Time
	src := rng.New(seed ^ 0x51EE9)
	lo, hi := total/20, total*19/20
	for i := 0; i < 25; i++ {
		cuts = append(cuts, lo+sim.Time(src.Uint64n(uint64(hi-lo))))
	}
	// Directed: the middle of up to three GC windows and three
	// checkpoint write windows.
	for i := 0; i < len(gcw) && i < 3; i++ {
		if mid := (gcw[i][0] + gcw[i][1]) / 2; mid > 0 {
			cuts = append(cuts, mid)
		}
	}
	for i := 0; i < len(ckw) && i < 3; i++ {
		if mid := (ckw[i][0] + ckw[i][1]) / 2; mid > 0 {
			cuts = append(cuts, mid)
		}
	}

	for _, cutAt := range cuts {
		cutAndRecover(t, seed, requests, cutAt, false)
	}
}

// Same seed, same cut point: the recovered state must be byte
// identical across runs.
func TestPowerCutDeterministic(t *testing.T) {
	const seed = 1234
	const requests = 1500
	probe, _, _ := launch(t, seed, requests, 0)
	cutAt := probe.Engine().Now() / 2

	a, rptA := cutAndRecover(t, seed, requests, cutAt, false)
	b, rptB := cutAndRecover(t, seed, requests, cutAt, false)
	if len(a) == 0 {
		t.Fatal("empty recovered state")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and cut produced different recovered state")
	}
	if rptA != rptB {
		t.Errorf("mount reports differ: %+v vs %+v", rptA, rptB)
	}
}

// A full-scan mount (no checkpoint, OOB only) of the same cut must
// also verify, and must cost well over the checkpointed mount — that
// difference is the point of checkpointing — at every checkpoint
// interval: the checkpoint mount's cost grows with the checkpoint's age
// (open blocks to scan, GC copies to settle against it), the full
// scan's with the programmed capacity.
func TestMountFullScanVsCheckpoint(t *testing.T) {
	const seed = 77
	const requests = 12000
	for _, interval := range []sim.Time{2 * sim.Millisecond, 20 * sim.Millisecond, 100 * sim.Millisecond} {
		probe, _, _ := launchEvery(t, seed, requests, 0, interval)
		cutAt := probe.Engine().Now() * 2 / 3

		ctrl, mgr, led := launchEvery(t, seed, requests, cutAt, interval)
		mgr.PowerCut()
		array, sys := ctrl.Device().Array(), mgr.System()

		fast, fastRpt := remountFrom(t, seed, array, sys, false)
		if err := Verify(fast, led); err != nil {
			t.Fatalf("checkpoint every %d ms: checkpoint mount: %v", interval/sim.Millisecond, err)
		}
		if !fastRpt.UsedCheckpoint {
			t.Fatal("checkpoint mount did not use the checkpoint")
		}

		slow, slowRpt := remountFrom(t, seed, array, sys, true)
		if err := Verify(slow, led); err != nil {
			t.Fatalf("checkpoint every %d ms: full-scan mount: %v", interval/sim.Millisecond, err)
		}
		if slowRpt.UsedCheckpoint {
			t.Fatal("forced full scan used a checkpoint")
		}
		if 2*fastRpt.MountNs >= slowRpt.MountNs {
			t.Errorf("checkpoint every %d ms: full scan (%d ns) not twice the checkpointed mount (%d ns)",
				interval/sim.Millisecond, slowRpt.MountNs, fastRpt.MountNs)
		}
		// Both mounts must agree on the durable mapping for every acked
		// write; the full scan may additionally resurrect newer unacked
		// data, so compare via the ledger-audited stamps.
		for lpn := ftl.LPN(0); lpn < ftl.LPN(fast.LogicalPages()); lpn++ {
			if fast.Mapper().Lookup(lpn) != ssd.UnmappedPPN && slow.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
				t.Errorf("checkpoint every %d ms: LPN %d recovered by checkpoint mount but lost by full scan", interval/sim.Millisecond, lpn)
			}
		}
		t.Logf("checkpoint every %d ms: mount %.2f ms (age %.2f ms, %d journal records, %d OOB pages, %d roll-forward wins), full scan %.2f ms (%d OOB pages)",
			interval/sim.Millisecond, float64(fastRpt.MountNs)/1e6, float64(fastRpt.CheckpointAgeNs)/1e6, fastRpt.JournalRecords,
			fastRpt.OOBPagesScanned, fastRpt.RollForwardWins, float64(slowRpt.MountNs)/1e6, slowRpt.OOBPagesScanned)
	}
}

// scrubCtrlConfig turns on the retention scrubber with a patrol cheap
// enough to fire during a short test run.
func scrubCtrlConfig() ftl.ControllerConfig {
	cfg := cutCtrlConfig()
	cfg.Refresh = true
	cfg.RefreshPatrolReads = 16
	return cfg
}

// launchScrub is launch with the scrubber on: after the prefill the
// media's retention clocks jump a year, so the patrol finds refresh-due
// blocks and relocates them while host traffic runs.
func launchScrub(t *testing.T, seed uint64, requests int, deadline sim.Time) (*ftl.Controller, *Manager, *Ledger) {
	t.Helper()
	eng := sim.NewEngine()
	dev := ssd.New(eng, cutSSDConfig(seed))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), scrubCtrlConfig())
	workload.Prefill(ctrl, int64(ctrl.LogicalPages()/2))
	arr := dev.Array()
	for d := 0; d < arr.Dies(); d++ {
		chip := arr.Die(d)
		for b := 0; b < chip.Blocks(); b++ {
			if !chip.IsBadBlock(b) && !chip.IsErased(b) {
				chip.AdvanceRetention(b, 12)
			}
		}
	}
	led := NewLedger()
	mgr := Attach(ctrl, NewSystemArea(), Options{Ledger: led, CkptIntervalNs: 2 * sim.Millisecond})
	specs := []workload.TenantSpec{{
		Gen:      workload.NewStream(workload.Mixed, ctrl.LogicalPages(), seed+0x9E37),
		Requests: requests,
		Queue:    host.QueueConfig{Name: "mixed", Depth: 32},
	}}
	if _, err := workload.RunTenants(ctrl, specs, workload.MultiRunConfig{DeadlineNs: deadline}); err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	return ctrl, mgr, led
}

// A power cut in the middle of a refresh relocation must recover like
// any other cut: the scrub's half-moved data is either still valid at
// the old copy or remapped to the new one, never lost. The probe run
// locates completed scrub windows; directed cuts land mid-window.
func TestPowerCutMidScrub(t *testing.T) {
	const seed = 2718
	const requests = 4000

	ctrl0, _, led0 := launchScrub(t, seed, requests, 0)
	if err := Verify(ctrl0, led0); err != nil {
		t.Fatalf("probe run does not verify: %v", err)
	}
	if ctrl0.Stats().Refreshes == 0 {
		t.Fatal("probe run never refreshed — cuts cannot land mid-scrub")
	}
	sw := ctrl0.ScrubWindows()
	if len(sw) == 0 {
		t.Fatal("probe run recorded no scrub windows")
	}

	cuts := 0
	for _, w := range sw {
		mid := (w[0] + w[1]) / 2
		if mid == 0 {
			continue
		}
		ctrl, mgr, led := launchScrub(t, seed, requests, mid)
		mgr.PowerCut()
		eng := sim.NewEngine()
		dev := ssd.NewWithArray(eng, cutSSDConfig(seed), ctrl.Device().Array())
		ctrl2, _, err := Mount(dev, core.New(dev.Geometry()), scrubCtrlConfig(), mgr.System(), MountOptions{})
		if err != nil {
			t.Fatalf("cut mid-scrub @%d: Mount: %v", mid, err)
		}
		if err := Verify(ctrl2, led); err != nil {
			t.Errorf("cut mid-scrub @%d: %v", mid, err)
		}
		if cuts == 0 {
			// Drive the remounted controller hard enough to run GC and
			// the patrol again: the mount path must rebuild the
			// relocation-cause and patrol state, not just the mapping.
			src := rng.New(seed ^ 0xA6ED)
			n := ctrl2.LogicalPages() / 2
			ops, outstanding := 3000, 0
			var issue func()
			issue = func() {
				for outstanding < 16 && ops > 0 {
					ops--
					outstanding++
					if err := ctrl2.Write(ftl.LPN(src.Intn(n)), nil, func() { outstanding--; issue() }); err != nil {
						t.Fatalf("post-mount write: %v", err)
					}
				}
			}
			issue()
			eng.RunWhile(func() bool { return outstanding > 0 || !ctrl2.Drained() || ctrl2.GCActiveAny() })
			if ctrl2.Stats().GCCount == 0 {
				t.Error("post-mount traffic never ran GC — regression coverage lost")
			}
			if err := ctrl2.CheckConsistency(); err != nil {
				t.Errorf("post-mount traffic on remounted scrubber: %v", err)
			}
		}
		if cuts++; cuts >= 4 {
			break
		}
	}
}

// A grown bad block must stay retired across a power cycle: the
// Retired journal record makes the retirement durable, and the media
// bad-block mark backstops it even on a full scan.
func TestBadBlockSurvivesPowerCycle(t *testing.T) {
	const seed = 5
	eng := sim.NewEngine()
	cfg := cutSSDConfig(seed)
	dev := ssd.New(eng, cfg)
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
	// Let the journal flush settle, then cut.
	eng.RunUntil(eng.Now() + 2*JournalFlushNs)
	mgr.PowerCut()

	for _, force := range []bool{false, true} {
		ctrl2, _ := remountFrom(t, seed, dev.Array(), mgr.System(), force)
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
	const seed = 9
	const deadDie = 1
	eng := sim.NewEngine()
	cfg := cutSSDConfig(seed)
	dev := ssd.New(eng, cfg)
	dev.SetChipFaults(deadDie, nand.FaultConfig{ProgramFailRate: 1, EraseFailRate: 1})
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	led := NewLedger()
	mgr := Attach(ctrl, NewSystemArea(), Options{Ledger: led})

	src := rng.New(31)
	n := ctrl.LogicalPages() * 3 / 10
	ops := 6000
	outstanding := 0
	var issue func()
	issue = func() {
		for outstanding < 16 && ops > 0 {
			ops--
			outstanding++
			if err := ctrl.Write(ftl.LPN(src.Intn(n)), nil, func() { outstanding--; issue() }); err != nil {
				t.Fatalf("write with one dead die: %v", err)
			}
		}
	}
	issue()
	eng.RunWhile(func() bool { return outstanding > 0 || !ctrl.Drained() })
	if !ctrl.DieDegraded(deadDie) {
		t.Fatal("dead die never degraded")
	}
	eng.RunUntil(eng.Now() + 2*JournalFlushNs)
	mgr.PowerCut()

	ctrl2, _ := remountFrom(t, seed, dev.Array(), mgr.System(), false)
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
	before := make([]int, dev.Dies())
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
		before[chip]++
		if chip == deadDie {
			t.Errorf("post-mount write of LPN %d landed on the fenced die", lpn)
		}
	}
	if err := ctrl2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
