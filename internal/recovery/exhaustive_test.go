package recovery_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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
// durable-ack device, cut after every event it fires — inside programs,
// journal flushes, checkpoint writes (patched ones included, and patches
// that insert the records of pages written for the first time since their
// slot's last encode), GC relocations, erases and their barriers — each
// cut an image (recovery.Manager.Cut) mounted with verify while the run
// goes on. A write is acked when its page is programmed and is recorded
// nowhere but in its OOB record, so this is the proof that the mount's
// per-LPN roll-forward brings back every acked write, and its tombstones
// every durable trim.

// life is one run of the sweep: a stack and the host commands started on
// it. Its cuts mount with verify, from the media alone if fullScan; a
// sweep counts them, those inside the write of a patch that inserted
// records, and the ones whose mount failed.
type life struct {
	st            *stack.Stack
	fullScan      bool
	issued, done  int // host commands
	cuts, inGrown int
	failed        []string
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

// start starts lp on l's controller.
func (l *life) start(t testing.TB, seed uint64, lp loop) *life {
	ctrl, src := l.st.Ctrl, rng.New(seed)
	var issue func()
	issue = func() {
		for l.issued-l.done < lp.qd && l.issued < lp.n {
			l.issued++
			lpn, done := ftl.LPN(src.Intn(lp.hot)), func() { l.done++; issue() }
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
	return l
}

// busy reports host commands outstanding or work the controller has not settled.
func (l *life) busy() bool {
	return l.done < l.issued || !l.st.Ctrl.Drained() || l.st.Ctrl.GCActiveAny()
}

var sweepSpec = stack.Spec{
	FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 6, Seed: 3,
	WriteBufferPages: 16, VerifyData: true,
	Recovery: true, CkptInterval: 2 * time.Millisecond,
}

// stackLife is the sweep's device as every binary builds it: stack.Build
// with Recovery on — two dies of six blocks, so the run's overwrites push
// both into GC — prefilled over the hot set before the measured run.
func stackLife(t testing.TB) *life { return specLife(t, sweepSpec, 0, sweepLoop, false) }

// fullScanLife is stackLife mounted from the media alone: no checkpoint,
// no journal, every block's OOB — the mount that shows what a page's
// spare-area record says, with nothing else to cover for it.
func fullScanLife(t testing.TB) *life { return specLife(t, sweepSpec, 0, sweepLoop, true) }

// agedLife is a stack with refresh and wear leveling on, aged three years
// between its prefill and its measured run: Stack.Age makes the jump, runs
// the refresh and wear-leveling moves it sets off to the end and takes a
// checkpoint, so every cut mounts from that checkpoint or a later one. The
// prefill closes blocks for the jump to age (an open write point is not
// refreshed). Twenty-four blocks a die: a refresh and wear-leveling device
// of sixteen or fewer never drains its first three-year jump.
func agedLife(t testing.TB) *life {
	spec := sweepSpec
	spec.BlocksPerChip, spec.Seed, spec.Refresh, spec.WearLevel = 24, 5, true, true
	return specLife(t, spec, 36, loop{hot: 2048, n: 400, qd: 16, reads: 4}, false)
}

// specLife builds spec's stack, prefills most of lp's hot pages, ages the
// stack months (none at 0) and starts lp, seeded by the spec.
func specLife(t testing.TB, spec stack.Spec, months float64, lp loop, fullScan bool) *life {
	st, err := stack.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	workload.Prefill(st.Ctrl, prefilled(lp.hot))
	if months > 0 {
		st.Age(months)
	}
	return (&life{st: st, fullScan: fullScan}).start(t, spec.Seed, lp)
}

// rigStack puts together by hand a stack a stack.Spec cannot describe
// (eight h-layers, two host programs per die, a cheap refresh patrol):
// the first prefill(ctrl) pages, then a manager whose genesis checkpoint
// covers them. core.New is the cubeFTL the zero Spec's Policy builds (its
// age-bucket resolver is read only by the retry table, off here), so
// Stack.Mount mounts the rig with the policy it ran.
func rigStack(devCfg ssd.Config, cfg ftl.ControllerConfig, prefill func(*ftl.Controller) int64, interval sim.Time) *stack.Stack {
	dev := ssd.New(sim.NewEngine(), devCfg)
	cube := core.New(dev.Geometry())
	ctrl := ftl.NewController(dev, cube, cfg)
	workload.Prefill(ctrl, prefill(ctrl))
	mgr := recovery.Attach(ctrl, recovery.NewSystemArea(), recovery.Options{Ledger: recovery.NewLedger(), CkptIntervalNs: interval})
	return &stack.Stack{
		Spec: stack.Spec{Recovery: true, CkptInterval: time.Duration(interval)},
		Eng:  dev.Engine(), Dev: dev, Ctrl: ctrl, Cube: cube, CtrlCfg: cfg, Mgr: mgr,
	}
}

// inflightLife lets a die run two host programs at once
// (MaxInflightProgramsPerChip, which no Spec sets), so a block fills and
// leaves the write points while a program into it is still in flight —
// the program whose pages a checkpoint taken meanwhile must still send
// the mount to scan (ftl's die.closing).
func inflightLife(t testing.TB) *life {
	const seed, hot = 1, 300
	devCfg := recovery.CutSSDConfig(seed)
	devCfg.Channels, devCfg.DiesPerChannel, devCfg.Chip.Process.BlocksPerChip = 2, 1, 8
	cfg := recovery.CutCtrlConfig()
	cfg.WriteBufferPages, cfg.MaxInflightProgramsPerChip = 24, 2
	st := rigStack(devCfg, cfg, func(*ftl.Controller) int64 { return prefilled(hot) }, 150*sim.Microsecond)
	return (&life{st: st}).start(t, seed, loop{hot: hot, n: 1500, qd: 16})
}

const spinEvents = 10_000 // events in a row that may leave progress unchanged

// progress is what a run that gets somewhere changes: host commands
// completed, word lines programmed, blocks erased, each die's free blocks.
func (l *life) progress() string {
	ns := l.st.Dev.Array().Stats()
	p := fmt.Sprintf("%d commands done, %d programs, %d erases, free blocks per die", l.done, ns.Programs, ns.Erases)
	for die := range l.st.Dev.Geometry().Chips {
		p += fmt.Sprint(" ", len(l.st.Ctrl.FreeBlocks(die)))
	}
	return p
}

// run steps l's run to its end and returns its event count. Before each
// event it calls at (when set) with the number fired so far, from 0: at(i)
// sees what a cut after i events finds. It fails t once spinEvents events
// in a row leave progress unchanged, or if the finished run fails Verify.
func (l *life) run(t testing.TB, at func(i uint64)) uint64 {
	t.Helper()
	eng, ctrl := l.st.Eng, l.st.Ctrl
	start, last, idle := eng.Fired(), l.progress(), 0
	for l.busy() {
		if at != nil {
			at(eng.Fired() - start)
		}
		if !eng.Step() {
			break
		}
		if p := l.progress(); p != last {
			last, idle = p, 0
		} else if idle++; idle == spinEvents {
			t.Fatalf("%d events after event %d got nowhere: %s, GCActiveAny %v, PendingAckCount %d",
				spinEvents, eng.Fired()-start-spinEvents, last, ctrl.GCActiveAny(), ctrl.PendingAckCount())
		}
	}
	if err := recovery.Verify(ctrl, l.st.Mgr.Ledger()); err != nil {
		t.Fatalf("the uncut run does not verify: %v", err)
	}
	return eng.Fired() - start
}

// cut mounts, with verify, the image a power cut would leave now.
func (l *life) cut() (*stack.Stack, recovery.MountReport, error) {
	mounted, rpt, err := l.st.Mount(l.st.Mgr.Cut(), true, l.fullScan)
	if err == nil && !mounted.Ctrl.Drained() {
		err = errors.New("the mounted controller is not drained")
	}
	return mounted, rpt, err
}

// sweep runs l to its end, cutting after each event i that pick accepts,
// and returns the run's event count.
func (l *life) sweep(t testing.TB, pick func(i uint64) bool) uint64 {
	t.Helper()
	return l.run(t, func(i uint64) {
		if !pick(i) {
			return
		}
		l.cuts++
		if l.st.Mgr.InGrownPatch() {
			l.inGrown++
		}
		if _, _, err := l.cut(); err != nil {
			l.failed = append(l.failed, fmt.Sprintf("cut after event %d (t=%d): %v", i, l.st.Eng.Now(), err))
		}
	})
}

// every picks every stride-th event index.
func every(stride uint64) func(i uint64) bool {
	return func(i uint64) bool { return i%stride == 0 }
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

// sweepStride is 1 — every event, -short included — except under -race,
// where the sweep takes every seventh: the four legs take ~7 s together
// on two cores, over 15 times that with the race detector. make tier1
// cuts every event once (powercut-sweep) and every seventh in its race legs.
func sweepStride() uint64 {
	if recovery.RaceEnabled {
		return 7
	}
	return 1
}

func TestPowerCutAtEveryEvent(t *testing.T) {
	for _, leg := range []struct {
		name string
		life func(testing.TB) *life
		aged bool
	}{{"stack", stackLife, false}, {"two programs per die", inflightLife, false}, {"full scan", fullScanLife, false}, {"after an age jump", agedLife, true}} {
		t.Run(leg.name, func(t *testing.T) {
			l, ckpt, stride := leg.life(t), false, sweepStride()
			events := l.sweep(t, func(i uint64) bool {
				ckpt = ckpt || l.st.Mgr.CheckpointInFlight()
				return i%stride == 0
			})
			st, patched := l.st.Ctrl.Stats(), l.st.Mgr.PatchedCheckpoints()
			t.Logf("%d events, %d cuts, %d inside a patch that inserted records; the run: %d programs, %d GC / %d refresh / %d wear-leveling cycles, %d patched checkpoints",
				events, l.cuts, l.inGrown, st.Programs, st.GCCount, st.Refreshes, st.WearLevels, patched)
			switch {
			case leg.aged && (st.Refreshes == 0 || !ckpt):
				t.Errorf("the jump ran %d refresh cycles and the run wrote a checkpoint: %v; want both", st.Refreshes, ckpt)
			case !leg.aged && (st.GCCount == 0 || patched == 0 || l.inGrown == 0):
				t.Errorf("the run covers %d GC cycles, %d patched checkpoints and %d cuts inside a patch that inserted records, want all three",
					st.GCCount, patched, l.inGrown)
			}
			for _, f := range l.failed {
				t.Error(f)
			}
		})
	}
}

// A cut is a copy: an image held until the run is over, then mounted,
// gives the report and state (as the reference encoder writes it) of a
// fresh replay of the life cut at the same event — the one place a life
// is rebuilt and run to a cut. The samples are every 97th event of two of
// the sweep's legs and the first three mid-GC cuts of TestPowerCutSweep's.
func TestCutImageIsACopy(t *testing.T) {
	_, gc, _ := probeSweepRig(t)
	midGC := gc.mids(3)
	for _, leg := range []struct {
		name string
		life func(testing.TB) *life
		pick func(uint64) bool
	}{
		{"stack", stackLife, every(97)},
		{"two programs per die", inflightLife, every(97)},
		{"mid-GC", sweepRigLife, func(i uint64) bool { return slices.Contains(midGC, i) }},
	} {
		l, images := leg.life(t), map[uint64]recovery.Image{}
		l.run(t, func(i uint64) {
			if leg.pick(i) {
				images[i] = l.st.Mgr.Cut()
			}
		})
		for i, img := range images {
			r := leg.life(t)
			for start := r.st.Eng.Fired(); r.st.Eng.Fired()-start < i; r.st.Eng.Step() {
			}
			held, heldRpt, err := l.st.Mount(img, true, false)
			replayed, replayedRpt, err2 := r.st.Mount(r.st.Mgr.Cut(), true, false)
			if err != nil || err2 != nil {
				t.Fatalf("%s, cut after event %d: %v / %v", leg.name, i, err, err2)
			}
			same := bytes.Equal(recovery.ReferenceImage(held.Ctrl), recovery.ReferenceImage(replayed.Ctrl))
			if heldRpt != replayedRpt || !same {
				t.Errorf("%s, cut after event %d: the image held while the run went on mounts to\n%+v\nthe replayed cut to\n%+v (same state: %v)",
					leg.name, i, heldRpt, replayedRpt, same)
			}
		}
		t.Logf("%s: %d images compared", leg.name, len(images))
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
			spec := sweepSpec
			spec.BlocksPerChip, spec.Seed, spec.ProgramFailRate = 8, run.seed, run.pfail
			l := specLife(t, spec, 0, sweepLoop, false)
			events, retired := l.sweep(t, every(5*sweepStride())), l.st.Ctrl.Stats().RetiredBlocks
			t.Logf("%d events, %d cuts; the run: %d blocks retired", events, l.cuts, retired)
			if retired == 0 {
				t.Error("no program failure retired a block: the case is not reached")
			}
			for _, f := range l.failed {
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
	l := stackLife(t)
	if l.sweep(t, every(29)); len(l.failed) == 0 {
		t.Fatal("every cut recovered every acked write under the global horizon: the sweep does not reach the case")
	}
	t.Logf("%d of %d cuts lose acked writes under the global horizon, first: %s", len(l.failed), l.cuts, l.failed[0])
}

// Both legs, with a checkpoint mapping standing at every tie unread, lose
// writes: a GC copy made since the checkpoint carries the same stamp as
// the page the checkpoint maps, and once the victim is erased only the
// media can say which of the two still holds the data. A handful of cuts
// reach the case, so the control cuts after every event, and is not run
// under -race.
func TestPowerCutAtEveryEventNeedsTheMediaAtTies(t *testing.T) {
	if sweepStride() != 1 {
		t.Skip("the control needs a cut after every event")
	}
	defer recovery.UseCheckpointAtTiesForTest()()
	for _, leg := range []struct {
		name string
		life func(testing.TB) *life
	}{{"stack", stackLife}, {"two programs per die", inflightLife}} {
		t.Run(leg.name, func(t *testing.T) {
			l := leg.life(t)
			if l.sweep(t, every(1)); len(l.failed) == 0 {
				t.Fatal("every cut recovered every acked write with the checkpoint standing at ties: the sweep does not reach the case")
			}
			t.Logf("%d of %d cuts lose writes with the checkpoint standing at ties, first: %s", len(l.failed), l.cuts, l.failed[0])
		})
	}
}
