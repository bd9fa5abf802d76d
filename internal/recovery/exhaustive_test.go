package recovery_test

import (
	"errors"
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
// ones included, and patches that insert the records of pages written for
// the first time since their slot's last encode), GC relocations, erases
// and their barriers — each cut followed by a verified remount. A write
// is acked when its page is programmed and is recorded nowhere but in its
// OOB record, so this is the proof that the mount's per-LPN roll-forward
// brings back every acked write, and its tombstones every durable trim.

// sweepLife is one replay of a sweep's run: its engine, whether host work
// is still outstanding, its controller and manager, and the power cut +
// verified remount. It is the one way a test here cuts a running
// workload: replay the life to an event index, then cut.
type sweepLife struct {
	eng  *sim.Engine
	busy func() bool
	cut  func() error
	ctrl *ftl.Controller
	mgr  *recovery.Manager
}

// prefilled is how many of a life's hot pages are written before its
// measured run: the rest are first written during it, between two
// checkpoints of a slot, whose next image must insert their records.
func prefilled(hot int) int64 { return int64(hot - hot/8) }

// loop is a life's measured run: n commands at queue depth qd over the
// first hot LPNs — one trim in sixteen, reads in sixteen reads, and
// writes.
type loop struct{ hot, n, qd, reads int }

// sweepLoop is the stack legs' run.
var sweepLoop = loop{hot: 600, n: 1500, qd: 24}

// closedLoop starts lp on ctrl.
func closedLoop(t testing.TB, ctrl *ftl.Controller, seed uint64, lp loop) (busy func() bool) {
	src := rng.New(seed)
	issued, outstanding := 0, 0
	var issue func()
	issue = func() {
		for outstanding < lp.qd && issued < lp.n {
			issued++
			outstanding++
			lpn, done := ftl.LPN(src.Intn(lp.hot)), func() { outstanding--; issue() }
			switch k := src.Intn(16); {
			case k == 0:
				ctrl.Trim(lpn, done)
			case k <= lp.reads:
				ctrl.Read(lpn, nil, done)
			default:
				if err := ctrl.Write(lpn, nil, done); err != nil {
					t.Fatalf("write %d: %v", lpn, err)
				}
			}
		}
	}
	issue()
	return func() bool { return outstanding > 0 || !ctrl.Drained() || ctrl.GCActiveAny() }
}

// stackLife is the sweep's device as every binary builds it: stack.Build
// with Recovery on — two dies of six blocks, so the run's overwrites push
// both into GC — prefilled over the hot set before the measured run.
func stackLife(t testing.TB) sweepLife { return specLife(t, sweepSpec, 0, sweepLoop, false) }

// fullScanLife is stackLife remounted from the media alone: no checkpoint,
// no journal, every block's OOB — the mount that shows what a page's
// spare-area record says, with nothing else to cover for it.
func fullScanLife(t testing.TB) sweepLife { return specLife(t, sweepSpec, 0, sweepLoop, true) }

var sweepSpec = stack.Spec{
	FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 6, Seed: 3,
	WriteBufferPages: 16, VerifyData: true,
	Recovery: true, CkptInterval: 2 * time.Millisecond,
}

// agedLife is a stack with refresh and wear leveling on, aged three years
// between its prefill and its measured run: Stack.Age makes the jump, runs
// the refresh and wear-leveling moves it sets off to the end and takes a
// checkpoint, so every cut mounts from that checkpoint or a later one. The
// prefill closes blocks for the jump to age (an open write point is not
// refreshed). Twenty-four blocks a die: a refresh and wear-leveling device
// of sixteen or fewer never drains its first three-year jump.
func agedLife(t testing.TB) sweepLife {
	return specLife(t, stack.Spec{
		FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 24, Seed: 5,
		WriteBufferPages: 16, VerifyData: true, Refresh: true, WearLevel: true,
		Recovery: true, CkptInterval: 2 * time.Millisecond,
	}, 36, loop{hot: 2048, n: 400, qd: 16, reads: 4}, false)
}

// specLife builds spec's stack, prefills most of lp's hot pages, ages the
// stack months (none at 0) and starts lp, seeded by the spec. Its cut
// remounts with verify, from the media alone if fullScan.
func specLife(t testing.TB, spec stack.Spec, months float64, lp loop, fullScan bool) sweepLife {
	st, err := stack.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.Prefill(st.Ctrl, prefilled(lp.hot))
	if months > 0 {
		st.Age(months)
	}
	return sweepLife{
		eng:  st.Eng,
		busy: closedLoop(t, st.Ctrl, spec.Seed, lp),
		cut: func() error {
			if err := st.PowerCut(); err != nil {
				return err
			}
			_, err := st.Remount(true, fullScan)
			return err
		},
		ctrl: st.Ctrl,
		mgr:  st.Mgr,
	}
}

// rig is a device built by hand under a recovery manager, for the lives a
// stack.Spec cannot describe (eight h-layers, two host programs per die, a
// cheap refresh patrol). mount brings it up from the array and system
// area that survive a cut, on a fresh engine, and verifies it.
type rig struct {
	devCfg ssd.Config
	cfg    ftl.ControllerConfig
	ctrl   *ftl.Controller
	mgr    *recovery.Manager
}

// newRig builds the controller, writes the first prefill(ctrl) pages and
// attaches the manager, whose genesis checkpoint covers them.
func newRig(devCfg ssd.Config, cfg ftl.ControllerConfig, prefill func(*ftl.Controller) int64, interval sim.Time) *rig {
	dev := ssd.New(sim.NewEngine(), devCfg)
	r := &rig{devCfg: devCfg, cfg: cfg, ctrl: ftl.NewController(dev, core.New(dev.Geometry()), cfg)}
	workload.Prefill(r.ctrl, prefill(r.ctrl))
	r.mgr = recovery.Attach(r.ctrl, recovery.NewSystemArea(), recovery.Options{Ledger: recovery.NewLedger(), CkptIntervalNs: interval})
	return r
}

// mount is the remount after a cut (fullScan: from the OOB records alone,
// which owe none of the ledger's trims).
func (r *rig) mount(fullScan bool) (*ftl.Controller, recovery.MountReport, error) {
	dev := ssd.NewWithArray(sim.NewEngine(), r.devCfg, r.ctrl.Device().Array())
	ctrl, rpt, err := recovery.Mount(dev, core.New(dev.Geometry()), r.cfg, r.mgr.System(), recovery.MountOptions{ForceFullScan: fullScan})
	if err != nil {
		return nil, rpt, err
	}
	if !ctrl.Drained() {
		return nil, rpt, errors.New("the mounted controller is not drained")
	}
	if fullScan {
		r.mgr.Ledger().ForgetTrims()
	}
	return ctrl, rpt, recovery.Verify(ctrl, r.mgr.Ledger())
}

// life starts lp on the rig.
func (r *rig) life(t testing.TB, seed uint64, lp loop) sweepLife {
	return sweepLife{
		eng:  r.ctrl.Engine(),
		busy: closedLoop(t, r.ctrl, seed, lp),
		cut: func() error {
			r.mgr.PowerCut()
			_, _, err := r.mount(false)
			return err
		},
		ctrl: r.ctrl,
		mgr:  r.mgr,
	}
}

// inflightLife lets a die run two host programs at once
// (MaxInflightProgramsPerChip, which no Spec sets), so a block fills and
// leaves the write points while a program into it is still in flight —
// the program whose pages a checkpoint taken meanwhile must still send
// the mount to scan (ftl's die.closing).
func inflightLife(t testing.TB) sweepLife {
	const seed, hot = 1, 300
	devCfg := recovery.CutSSDConfig(seed)
	devCfg.Channels, devCfg.DiesPerChannel, devCfg.Chip.Process.BlocksPerChip = 2, 1, 8
	cfg := recovery.CutCtrlConfig()
	cfg.WriteBufferPages, cfg.MaxInflightProgramsPerChip = 24, 2
	r := newRig(devCfg, cfg, func(*ftl.Controller) int64 { return prefilled(hot) }, 150*sim.Microsecond)
	return r.life(t, seed, loop{hot: hot, n: 1500, qd: 16})
}

// runTo replays l until i events of its measured run have fired or its
// host work is done.
func runTo(l sweepLife, i uint64) {
	at := l.eng.Fired() + i
	l.eng.RunWhile(func() bool { return l.busy() && l.eng.Fired() < at })
}

// probe runs one life to completion, calling each (when set) after every
// event with the number of events fired so far, verifies it, and returns
// it with its event count. The simulation is deterministic, so a replay of
// the life cut after i events is in the state each saw at i.
func probe(t *testing.T, life func(testing.TB) sweepLife, each func(l sweepLife, i uint64)) (sweepLife, uint64) {
	t.Helper()
	l := life(t)
	start := l.eng.Fired()
	for l.busy() && l.eng.Step() {
		if each != nil {
			each(l, l.eng.Fired()-start)
		}
	}
	if err := recovery.Verify(l.ctrl, l.mgr.Ledger()); err != nil {
		t.Fatalf("the uncut run does not verify: %v", err)
	}
	return l, l.eng.Fired() - start
}

// every is every stride-th event index of a run of events.
func every(events, stride uint64) (cuts []uint64) {
	for i := uint64(0); i < events; i += stride {
		cuts = append(cuts, i)
	}
	return cuts
}

// sweepCuts cuts a fresh replay of life after each of cuts' event
// indices. It returns the cuts whose remount failed and how many cuts
// landed inside the write of a patch that inserted records.
func sweepCuts(t *testing.T, life func(testing.TB) sweepLife, cuts []uint64) (failed []string, inGrown int) {
	t.Helper()
	for _, i := range cuts {
		l := life(t)
		runTo(l, i)
		if l.mgr.InGrownPatch() {
			inGrown++
		}
		if err := l.cut(); err != nil {
			failed = append(failed, fmt.Sprintf("cut after event %d (t=%d): %v", i, l.eng.Now(), err))
		}
	}
	return failed, inGrown
}

// spans records the runs of consecutive events after which a state held,
// as [first, last] event indices.
type spans struct {
	open bool
	got  [][2]uint64
}

// see notes whether the state holds after event i; anew starts a new run
// even if it held before (a GC cycle opening while another die's runs).
func (s *spans) see(i uint64, on, anew bool) {
	switch {
	case on && s.open && !anew:
		s.got[len(s.got)-1][1] = i
	case on:
		s.got = append(s.got, [2]uint64{i, i})
	}
	s.open = on
}

// mids returns the middle event of each of the first n runs.
func (s *spans) mids(n int) (cuts []uint64) {
	for _, g := range s.got[:min(n, len(s.got))] {
		cuts = append(cuts, (g[0]+g[1])/2)
	}
	return cuts
}

// sweepStride is 1 — every event — except under -short and -race, where
// the sweep takes every seventh: a leg is ~12 s, ten times that with the
// race detector. make tier1 runs it in full once, without
// (powercut-sweep), and every seventh cut in its race legs.
func sweepStride() uint64 {
	if testing.Short() || recovery.RaceEnabled {
		return 7
	}
	return 1
}

func TestPowerCutAtEveryEvent(t *testing.T) {
	for _, leg := range []struct {
		name string
		life func(testing.TB) sweepLife
		aged bool
	}{{"stack", stackLife, false}, {"two programs per die", inflightLife, false}, {"full scan", fullScanLife, false}, {"after an age jump", agedLife, true}} {
		t.Run(leg.name, func(t *testing.T) {
			ckpt := false
			p, events := probe(t, leg.life, func(l sweepLife, _ uint64) { ckpt = ckpt || l.mgr.CheckpointInFlight() })
			cuts := every(events, sweepStride())
			failed, inGrown := sweepCuts(t, leg.life, cuts)
			st, patched := p.ctrl.Stats(), p.mgr.PatchedCheckpoints()
			t.Logf("%d events, %d cuts, %d inside a patch that inserted records; probe: %d programs, %d GC / %d refresh / %d wear-leveling cycles, %d patched checkpoints",
				events, len(cuts), inGrown, st.Programs, st.GCCount, st.Refreshes, st.WearLevels, patched)
			switch {
			case leg.aged && (st.Refreshes == 0 || !ckpt):
				t.Errorf("the jump ran %d refresh cycles and the run wrote a checkpoint: %v; want both", st.Refreshes, ckpt)
			case !leg.aged && (st.GCCount == 0 || patched == 0 || inGrown == 0):
				t.Errorf("the run covers %d GC cycles, %d patched checkpoints and %d cuts inside a patch that inserted records, want all three",
					st.GCCount, patched, inGrown)
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
				}, 0, sweepLoop, false)
			}
			p, events := probe(t, life, nil)
			cuts := every(events, 5*sweepStride())
			failed, _ := sweepCuts(t, life, cuts)
			retired := p.ctrl.Stats().RetiredBlocks
			t.Logf("%d events, %d cuts; probe: %d blocks retired", events, len(cuts), retired)
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
	_, events := probe(t, stackLife, nil)
	cuts := every(events, 29)
	failed, _ := sweepCuts(t, stackLife, cuts)
	if len(failed) == 0 {
		t.Fatal("every cut recovered every acked write under the global horizon: the sweep does not reach the case")
	}
	t.Logf("%d of %d cuts lose acked writes under the global horizon, first: %s", len(failed), len(cuts), failed[0])
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
			_, events := probe(t, leg.life, nil)
			failed, _ := sweepCuts(t, leg.life, every(events, 1))
			if len(failed) == 0 {
				t.Fatal("every cut recovered every acked write with the checkpoint standing at ties: the sweep does not reach the case")
			}
			t.Logf("%d of %d cuts lose writes with the checkpoint standing at ties, first: %s", len(failed), events, failed[0])
		})
	}
}
