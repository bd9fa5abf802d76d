package recovery_test

import (
	"fmt"
	"testing"
	"time"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/recovery"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// The exhaustive power-cut sweep (ROADMAP 1(c)): one short run on a tiny
// durable-ack device, replayed from scratch and cut after every event it
// fires — inside programs, journal flushes, checkpoint writes (patched
// ones included), GC relocations, erases and their barriers — each cut
// followed by a verified remount. A write is acked when its page is
// programmed and is recorded nowhere but in its OOB record, so this is
// the proof that the mount's per-LPN roll-forward brings back every acked
// write, and its tombstones every durable trim.

// sweepLife is one replay of a sweep's run: its engine, whether host work
// is still outstanding, and the power cut + verified remount.
type sweepLife struct {
	eng     *sim.Engine
	busy    func() bool
	cut     func() error
	ctrl    *ftl.Controller
	patched func() int
}

// closedLoop keeps qd operations outstanding over the first hot LPNs
// until n have been issued: writes, and one trim in sixteen.
func closedLoop(t testing.TB, ctrl *ftl.Controller, seed uint64, hot, n, qd int) (busy func() bool) {
	src := rng.New(seed)
	issued, outstanding := 0, 0
	var issue func()
	issue = func() {
		for outstanding < qd && issued < n {
			issued++
			outstanding++
			lpn, done := ftl.LPN(src.Intn(hot)), func() { outstanding--; issue() }
			if src.Intn(16) == 0 {
				ctrl.Trim(lpn, done)
			} else if err := ctrl.Write(lpn, nil, done); err != nil {
				t.Fatalf("write %d: %v", lpn, err)
			}
		}
	}
	issue()
	return func() bool { return outstanding > 0 || !ctrl.Drained() || ctrl.GCActiveAny() }
}

// stackLife is the sweep's device as every binary builds it: stack.Build
// with Recovery on — two dies of six blocks, so the run's overwrites push
// both into GC — prefilled over the hot set before the measured run.
func stackLife(t testing.TB) sweepLife { return stackLifeMounting(t, false) }

// fullScanLife is stackLife remounted from the media alone: no checkpoint,
// no journal, every block's OOB — the mount that shows what a page's
// spare-area record says, with nothing else to cover for it.
func fullScanLife(t testing.TB) sweepLife { return stackLifeMounting(t, true) }

func stackLifeMounting(t testing.TB, fullScan bool) sweepLife {
	return specLife(t, stack.Spec{
		FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 6, Seed: 3,
		WriteBufferPages: 16, VerifyData: true,
		Recovery: true, CkptInterval: 2 * time.Millisecond,
	}, fullScan)
}

// specLife builds spec's stack, prefills the 600 hot pages and runs the
// sweep's closed loop over them, seeded by the spec.
func specLife(t testing.TB, spec stack.Spec, fullScan bool) sweepLife {
	const hot = 600
	st, err := stack.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.Prefill(st.Ctrl, hot)
	return sweepLife{
		eng:  st.Eng,
		busy: closedLoop(t, st.Ctrl, spec.Seed, hot, 1500, 24),
		cut: func() error {
			if err := st.PowerCut(); err != nil {
				return err
			}
			_, err := st.Remount(true, fullScan)
			return err
		},
		ctrl:    st.Ctrl,
		patched: st.Mgr.PatchedCheckpoints,
	}
}

// inflightLife lets a die run two host programs at once
// (MaxInflightProgramsPerChip, which no Spec sets), so a block fills and
// leaves the write points while a program into it is still in flight —
// the program whose pages a checkpoint taken meanwhile must still send
// the mount to scan (ftl's die.closing).
func inflightLife(t testing.TB) sweepLife {
	const seed, hot = 1, 300
	devCfg := ssd.DefaultConfig()
	devCfg.Channels, devCfg.DiesPerChannel = 2, 1
	devCfg.Chip.Process.BlocksPerChip, devCfg.Chip.Process.Layers = 8, 8
	devCfg.Chip.StoreData = true
	devCfg.Seed = seed
	cfg := ftl.DefaultControllerConfig()
	cfg.WriteBufferPages, cfg.MaxInflightProgramsPerChip = 24, 2
	cfg.VerifyData, cfg.DurableAcks = true, true

	eng := sim.NewEngine()
	dev := ssd.New(eng, devCfg)
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cfg)
	workload.Prefill(ctrl, hot)
	led := recovery.NewLedger()
	mgr := recovery.Attach(ctrl, recovery.NewSystemArea(), recovery.Options{Ledger: led, CkptIntervalNs: 150 * sim.Microsecond})
	return sweepLife{
		eng:  eng,
		busy: closedLoop(t, ctrl, seed, hot, 1500, 16),
		cut: func() error {
			mgr.PowerCut()
			dev2 := ssd.NewWithArray(sim.NewEngine(), devCfg, dev.Array())
			ctrl2, _, err := recovery.Mount(dev2, core.New(dev2.Geometry()), cfg, mgr.System(), recovery.MountOptions{})
			if err != nil {
				return err
			}
			return recovery.Verify(ctrl2, led)
		},
		ctrl:    ctrl,
		patched: mgr.PatchedCheckpoints,
	}
}

// sweepCuts runs one life to completion as the probe, then cuts a fresh
// replay after every stride-th event of its measured run. It returns the
// cuts whose remount failed, the probe, and the run's event count.
func sweepCuts(t *testing.T, life func(testing.TB) sweepLife, stride uint64) (failed []string, probe sweepLife, events uint64) {
	t.Helper()
	probe = life(t)
	start := probe.eng.Fired()
	probe.eng.RunWhile(probe.busy)
	events = probe.eng.Fired() - start
	for i := uint64(0); i < events; i += stride {
		l := life(t)
		at := l.eng.Fired() + i
		l.eng.RunWhile(func() bool { return l.busy() && l.eng.Fired() < at })
		if err := l.cut(); err != nil {
			failed = append(failed, fmt.Sprintf("cut after event %d (t=%d): %v", i, l.eng.Now(), err))
		}
	}
	return failed, probe, events
}

// sweepStride is 1 — every event — except under -short and -race, where
// the sweep takes every seventh: a leg is ~12 s, ten times that with the
// race detector. make tier1 runs it in full once, without
// (powercut-sweep), and every seventh cut in its race legs.
func sweepStride() uint64 {
	if testing.Short() || raceEnabled {
		return 7
	}
	return 1
}

func TestPowerCutAtEveryEvent(t *testing.T) {
	for _, leg := range []struct {
		name string
		life func(testing.TB) sweepLife
	}{{"stack", stackLife}, {"two programs per die", inflightLife}, {"full scan", fullScanLife}} {
		t.Run(leg.name, func(t *testing.T) {
			stride := sweepStride()
			failed, probe, events := sweepCuts(t, leg.life, stride)
			stats := probe.ctrl.Stats()
			t.Logf("%d events, %d cuts; probe: %d programs, %d GC cycles, %d patched checkpoints",
				events, (events+stride-1)/stride, stats.Programs, stats.GCCount, probe.patched())
			if stats.GCCount == 0 || probe.patched() == 0 {
				t.Errorf("the run covers %d GC cycles and %d patched checkpoints, want both", stats.GCCount, probe.patched())
			}
			for _, f := range failed {
				t.Error(f)
			}
		})
	}
}

// A program failure retires its block on the spot, and the block keeps
// the pages acked into it until their evacuation lands: the mount scans
// a write point the journal retired after the checkpoint (the first run
// below needs it), and one the checkpoint lists as open and as retired —
// retired with a program into it still in flight, which then completed
// and acked its pages (the second). Cuts between a retirement and the
// end of its evacuation lost acked writes before it did. A full-scan
// mount still skips bad blocks: the sweep's full-scan leg has no faults.
func TestPowerCutAfterProgramFailures(t *testing.T) {
	for _, run := range []struct {
		seed  uint64
		pfail float64
	}{{3, 5e-3}, {12, 3e-3}} {
		t.Run(fmt.Sprintf("seed %d", run.seed), func(t *testing.T) {
			life := func(t testing.TB) sweepLife {
				return specLife(t, stack.Spec{
					FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 8, Seed: run.seed,
					WriteBufferPages: 16, VerifyData: true, ProgramFailRate: run.pfail,
					Recovery: true, CkptInterval: 2 * time.Millisecond,
				}, false)
			}
			stride := 5 * sweepStride()
			failed, probe, events := sweepCuts(t, life, stride)
			retired := probe.ctrl.Stats().RetiredBlocks
			t.Logf("%d events, %d cuts; probe: %d blocks retired", events, (events+stride-1)/stride, retired)
			if retired == 0 {
				t.Error("no program failure retired a block: the case is not reached")
			}
			for _, f := range failed {
				t.Error(f)
			}
		})
	}
}

// The negative controls. The stack leg with the roll-forward rule the
// journal-gated ack used — a candidate must also be newer than every
// stamp the checkpoint and journal hold — loses acked writes: programs
// complete out of stamp order, so a newer stamp's page can be on the
// media while an older one, already acked, is not in the checkpoint.
func TestPowerCutAtEveryEventNeedsThePerLPNRule(t *testing.T) {
	defer recovery.UseGlobalHorizonForTest()()
	failed, _, events := sweepCuts(t, stackLife, 29)
	if len(failed) == 0 {
		t.Fatal("every cut recovered every acked write under the global horizon: the sweep does not reach the case")
	}
	t.Logf("%d of %d cuts lose acked writes under the global horizon, first: %s", len(failed), (events+28)/29, failed[0])
}

// Both legs, with a checkpoint mapping standing at every tie unread, lose
// writes: a GC copy made since the checkpoint carries the same stamp as
// the page the checkpoint maps, and once the victim is erased only the
// media can say which of the two still holds the data. A handful of cuts
// reach the case, so the control cuts after every event, and is not run
// under -short or -race.
func TestPowerCutAtEveryEventNeedsTheMediaAtTies(t *testing.T) {
	if sweepStride() != 1 {
		t.Skip("the control needs a cut after every event")
	}
	defer recovery.UseCheckpointAtTiesForTest()()
	for _, leg := range []struct {
		name string
		life func(testing.TB) sweepLife
	}{{"stack", stackLife}, {"two programs per die", inflightLife}} {
		t.Run(leg.name, func(t *testing.T) {
			failed, _, events := sweepCuts(t, leg.life, 1)
			if len(failed) == 0 {
				t.Fatal("every cut recovered every acked write with the checkpoint standing at ties: the sweep does not reach the case")
			}
			t.Logf("%d of %d cuts lose writes with the checkpoint standing at ties, first: %s", len(failed), events, failed[0])
		})
	}
}
