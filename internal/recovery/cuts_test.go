package recovery_test

import (
	"bytes"
	"slices"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/pool"
	"cubeftl/internal/recovery"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// rigLife is recovery.CutSSDConfig's device, half prefilled, and its
// run: requests commands at depth 32, half of them reads, over the lower
// five eighths of the logical space — an eighth first written in the run,
// and room for GC to get each die's free pool back over its threshold
// once the host stops. scrub turns the retention scrubber on with a
// patrol cheap enough to fire in a short run, and moves the prefilled
// blocks' retention clocks a year on, so the patrol finds refresh-due
// blocks while host traffic runs.
func rigLife(t testing.TB, seed uint64, requests int, interval sim.Time, scrub bool) *life {
	cfg := recovery.CutCtrlConfig()
	if scrub {
		cfg.Refresh, cfg.RefreshPatrolReads = true, 16
	}
	st := rigStack(recovery.CutSSDConfig(seed), cfg, func(c *ftl.Controller) int64 { return int64(c.LogicalPages() / 2) }, interval)
	if scrub {
		arr := st.Dev.Array()
		for d := 0; d < arr.Dies(); d++ {
			for b, chip := 0, arr.Die(d); b < chip.Blocks(); b++ {
				if !chip.IsBadBlock(b) && !chip.IsErased(b) {
					chip.AdvanceRetention(b, 12)
				}
			}
		}
	}
	return (&life{st: st}).start(t, seed, loop{hot: st.Ctrl.LogicalPages() * 5 / 8, n: requests, qd: 32, reads: 8})
}

// sweepRigLife is TestPowerCutSweep's life.
func sweepRigLife(t testing.TB) *life { return rigLife(t, 42, 6000, 2*sim.Millisecond, false) }

// probeSweepRig runs TestPowerCutSweep's life uncut and returns its event
// count and the spans of its GC cycles (from a cycle's opening to the next
// one's, or to the end of relocation on every die) and checkpoint writes.
func probeSweepRig(t *testing.T) (events uint64, gc, ckpt spans) {
	var cycles int64
	p := sweepRigLife(t)
	events = p.run(t, func(i uint64) {
		opened := p.st.Ctrl.Stats().GCCount > cycles
		cycles = p.st.Ctrl.Stats().GCCount
		gc.see(i, p.st.Ctrl.GCActiveAny(), opened)
		ckpt.see(i, p.st.Mgr.CheckpointInFlight(), false)
	})
	if len(gc.got) < 3 || len(ckpt.got) < 3 {
		t.Fatalf("the run ran %d GC cycles and %d checkpoint writes, want three of each", len(gc.got), len(ckpt.got))
	}
	return events, gc, ckpt
}

// The acceptance sweep: 25 seed-derived cuts plus directed ones in the
// middle of the first three GC cycles and of the first three checkpoint
// writes, found by a first run and cut in a second. Every cut must
// recover to a state that passes the full verifier: zero lost acked
// writes, zero L2P/OOB disagreements, balanced page accounting.
func TestPowerCutSweep(t *testing.T) {
	events, gc, ckpt := probeSweepRig(t)
	cuts := append(gc.mids(3), ckpt.mids(3)...)
	src := rng.New(42 ^ 0x51EE9)
	lo, hi := events/20, events*19/20
	for i := 0; i < 25; i++ {
		cuts = append(cuts, lo+src.Uint64n(hi-lo))
	}
	t.Logf("%d events; directed cuts mid-GC %v, mid-checkpoint %v", events, gc.mids(3), ckpt.mids(3))
	l := sweepRigLife(t)
	l.sweep(t, func(i uint64) bool { return slices.Contains(cuts, i) })
	for _, f := range l.failed {
		t.Error(f)
	}
}

// Same seed, same cut point: the recovered state must be byte
// identical across runs.
func TestPowerCutDeterministic(t *testing.T) {
	const seed, requests = 1234, 1500
	events := rigLife(t, seed, requests, 2*sim.Millisecond, false).run(t, nil)
	var states [2][]byte
	var rpts [2]recovery.MountReport
	for n := range states {
		l := rigLife(t, seed, requests, 2*sim.Millisecond, false)
		l.run(t, func(i uint64) {
			if i == events/2 {
				mounted, rpt, err := l.cut()
				if err != nil {
					t.Fatalf("cut after event %d: %v", i, err)
				}
				states[n], rpts[n] = mounted.Mgr.System().StateBytes(), rpt
			}
		})
	}
	switch {
	case len(states[0]) == 0:
		t.Fatal("empty recovered state")
	case !bytes.Equal(states[0], states[1]):
		t.Fatal("same seed and cut produced different recovered state")
	case rpts[0] != rpts[1]:
		t.Errorf("mount reports differ: %+v vs %+v", rpts[0], rpts[1])
	}
}

// A full-scan mount (no checkpoint, OOB only) of the same cut must
// also verify, and must cost well over the checkpointed mount — that
// difference is the point of checkpointing — at every checkpoint
// interval: the checkpoint mount's cost grows with the checkpoint's age
// (open blocks to scan, GC copies to settle against it), the full
// scan's with the programmed capacity.
func TestMountFullScanVsCheckpoint(t *testing.T) {
	const seed, requests = 77, 12000
	for _, interval := range []sim.Time{2 * sim.Millisecond, 20 * sim.Millisecond, 100 * sim.Millisecond} {
		ms := interval / sim.Millisecond
		events := rigLife(t, seed, requests, interval, false).run(t, nil)
		l := rigLife(t, seed, requests, interval, false)
		l.run(t, func(i uint64) {
			if i != events*2/3 {
				return
			}
			fast, fastRpt, err := l.st.Mount(l.st.Mgr.Cut(), true, false)
			if err != nil || !fastRpt.UsedCheckpoint {
				t.Fatalf("checkpoint every %d ms: checkpoint mount: %v, used the checkpoint: %v", ms, err, fastRpt.UsedCheckpoint)
			}
			slow, slowRpt, err := l.st.Mount(l.st.Mgr.Cut(), true, true)
			if err != nil || slowRpt.UsedCheckpoint {
				t.Fatalf("checkpoint every %d ms: full-scan mount: %v, used a checkpoint: %v", ms, err, slowRpt.UsedCheckpoint)
			}
			if 2*fastRpt.MountNs >= slowRpt.MountNs {
				t.Errorf("checkpoint every %d ms: full scan (%d ns) not twice the checkpointed mount (%d ns)", ms, slowRpt.MountNs, fastRpt.MountNs)
			}
			// Both mounts must agree on the durable mapping for every acked
			// write; the full scan may additionally resurrect newer unacked
			// data, or the copy a trim covered, so compare via the
			// ledger-audited stamps.
			for lpn := ftl.LPN(0); lpn < ftl.LPN(fast.Ctrl.LogicalPages()); lpn++ {
				if fast.Ctrl.Mapper().Lookup(lpn) != ssd.UnmappedPPN && slow.Ctrl.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
					t.Errorf("checkpoint every %d ms: LPN %d recovered by checkpoint mount but lost by full scan", ms, lpn)
				}
			}
			t.Logf("checkpoint every %d ms: mount %.2f ms (age %.2f ms, %d journal records, %d OOB pages, %d roll-forward wins), full scan %.2f ms (%d OOB pages)",
				ms, float64(fastRpt.MountNs)/1e6, float64(fastRpt.CheckpointAgeNs)/1e6, fastRpt.JournalRecords,
				fastRpt.OOBPagesScanned, fastRpt.RollForwardWins, float64(slowRpt.MountNs)/1e6, slowRpt.OOBPagesScanned)
		})
	}
}

// A power cut in the middle of a refresh relocation must recover like
// any other cut: the scrub's half-moved data is either still valid at
// the old copy or remapped to the new one, never lost. The run is cut
// after the event that opens each of the first four refresh cycles and
// after the first event after it that lands refreshed pages (the victim
// is not yet erased then).
func TestPowerCutMidScrub(t *testing.T) {
	const seed, requests = 2718, 4000
	var cuts []uint64
	var refreshes, pages int64
	landing := false
	l := rigLife(t, seed, requests, 2*sim.Millisecond, true)
	l.run(t, func(i uint64) {
		st := l.st.Ctrl.Stats()
		opening := st.Refreshes > refreshes && st.Refreshes <= 4
		landed := !opening && st.RefreshPages > pages && landing
		refreshes, pages = st.Refreshes, st.RefreshPages
		if !opening && !landed {
			return
		}
		landing = opening
		cuts = append(cuts, i)
		mounted, _, err := l.cut()
		if err != nil {
			t.Errorf("cut mid-scrub after event %d: %v", i, err)
		} else if len(cuts) == 1 {
			// Drive the remounted controller hard enough to run GC and the
			// patrol again: the mount path must rebuild the relocation-cause
			// and patrol state, not just the mapping.
			(&life{st: mounted}).start(t, seed^0xA6ED, loop{hot: mounted.Ctrl.LogicalPages() / 2, n: 3000, qd: 16}).run(t, nil)
			if mounted.Ctrl.Stats().GCCount == 0 {
				t.Error("post-mount traffic never ran GC — regression coverage lost")
			}
			if err := mounted.Ctrl.CheckConsistency(); err != nil {
				t.Errorf("post-mount traffic on remounted scrubber: %v", err)
			}
		}
	})
	if l.st.Ctrl.Stats().Refreshes == 0 {
		t.Fatal("the run never refreshed — cuts cannot land mid-scrub")
	}
	t.Logf("%d refresh cycles; cuts after events %v", l.st.Ctrl.Stats().Refreshes, cuts)
}

// The power-cut sweep with every op-record free list capped at one
// record (see ftl's TestOpRecordReuseUnderChaos for why that is the
// harshest setting): records abandoned mid-operation by a cut, records
// recycled across GC, checkpoints and scrubs, and the remounted stack's
// fresh records must still recover every acked write, and the recovered
// state must still be byte-identical from run to run.
func TestPowerCutSweepWithRecycledOpRecords(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	t.Run("sweep", TestPowerCutSweep)
	t.Run("deterministic", TestPowerCutDeterministic)
}
