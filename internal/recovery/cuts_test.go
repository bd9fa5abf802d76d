package recovery_test

import (
	"bytes"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/pool"
	"cubeftl/internal/recovery"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// cutRig is recovery.CutSSDConfig's device, half prefilled, and its life:
// requests commands at depth 32, half of them reads, over the lower five
// eighths of the logical space — an eighth first written in the run, and
// room for GC to get each die's free pool back over its threshold once
// the host stops. scrub turns the retention scrubber on with a patrol
// cheap enough to fire in a short run, and moves the prefilled blocks'
// retention clocks a year on, so the patrol finds refresh-due blocks
// while host traffic runs.
func cutRig(t testing.TB, seed uint64, requests int, interval sim.Time, scrub bool) (*rig, sweepLife) {
	cfg := recovery.CutCtrlConfig()
	if scrub {
		cfg.Refresh, cfg.RefreshPatrolReads = true, 16
	}
	r := newRig(recovery.CutSSDConfig(seed), cfg, func(c *ftl.Controller) int64 { return int64(c.LogicalPages() / 2) }, interval)
	if scrub {
		arr := r.ctrl.Device().Array()
		for d := 0; d < arr.Dies(); d++ {
			for b, chip := 0, arr.Die(d); b < chip.Blocks(); b++ {
				if !chip.IsBadBlock(b) && !chip.IsErased(b) {
					chip.AdvanceRetention(b, 12)
				}
			}
		}
	}
	return r, r.life(t, seed, loop{hot: r.ctrl.LogicalPages() * 5 / 8, n: requests, qd: 32, reads: 8})
}

// cutLife builds a cutRig's life anew for each replay.
func cutLife(seed uint64, requests int, interval sim.Time, scrub bool) func(testing.TB) sweepLife {
	return func(t testing.TB) sweepLife { _, l := cutRig(t, seed, requests, interval, scrub); return l }
}

// cutAt replays a cutRig's run to event i and cuts its power.
func cutAt(t *testing.T, seed uint64, requests int, interval sim.Time, scrub bool, i uint64) *rig {
	r, l := cutRig(t, seed, requests, interval, scrub)
	runTo(l, i)
	r.mgr.PowerCut()
	return r
}

// The acceptance sweep: 25 seed-derived cuts plus directed ones in the
// middle of the first three GC cycles (from a cycle's opening to the next
// one's, or to the end of relocation on every die) and of the first three
// checkpoint writes. Every cut must recover to a state that passes the
// full verifier: zero lost acked writes, zero L2P/OOB disagreements,
// balanced page accounting.
func TestPowerCutSweep(t *testing.T) {
	const seed, requests = 42, 6000
	life := cutLife(seed, requests, 2*sim.Millisecond, false)
	var gc, ckpt spans
	var cycles int64
	_, events := probe(t, life, func(l sweepLife, i uint64) {
		opened := l.ctrl.Stats().GCCount > cycles
		cycles = l.ctrl.Stats().GCCount
		gc.see(i, l.ctrl.GCActiveAny(), opened)
		ckpt.see(i, l.mgr.CheckpointInFlight(), false)
	})
	if len(gc.got) == 0 || len(ckpt.got) == 0 {
		t.Fatalf("probe run ran %d GC cycles and %d checkpoint writes — sweep cannot cover mid-GC and mid-checkpoint cuts", len(gc.got), len(ckpt.got))
	}

	cuts := append(gc.mids(3), ckpt.mids(3)...)
	src := rng.New(seed ^ 0x51EE9)
	lo, hi := events/20, events*19/20
	for i := 0; i < 25; i++ {
		cuts = append(cuts, lo+src.Uint64n(hi-lo))
	}
	t.Logf("%d events; directed cuts mid-GC %v, mid-checkpoint %v", events, gc.mids(3), ckpt.mids(3))
	failed, _ := sweepCuts(t, life, cuts)
	for _, f := range failed {
		t.Error(f)
	}
}

// Same seed, same cut point: the recovered state must be byte
// identical across runs.
func TestPowerCutDeterministic(t *testing.T) {
	const seed, requests = 1234, 1500
	_, events := probe(t, cutLife(seed, requests, 2*sim.Millisecond, false), nil)
	recovered := func() ([]byte, recovery.MountReport) {
		ctrl, rpt, err := cutAt(t, seed, requests, 2*sim.Millisecond, false, events/2).mount(false)
		if err != nil {
			t.Fatalf("cut after event %d: %v", events/2, err)
		}
		return recovery.Attach(ctrl, recovery.NewSystemArea(), recovery.Options{Ledger: recovery.NewLedger()}).StateBytes(), rpt
	}
	a, rptA := recovered()
	b, rptB := recovered()
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
	const seed, requests = 77, 12000
	for _, interval := range []sim.Time{2 * sim.Millisecond, 20 * sim.Millisecond, 100 * sim.Millisecond} {
		ms := interval / sim.Millisecond
		_, events := probe(t, cutLife(seed, requests, interval, false), nil)
		r := cutAt(t, seed, requests, interval, false, events*2/3)

		fast, fastRpt, err := r.mount(false)
		if err != nil {
			t.Fatalf("checkpoint every %d ms: checkpoint mount: %v", ms, err)
		}
		if !fastRpt.UsedCheckpoint {
			t.Fatal("checkpoint mount did not use the checkpoint")
		}
		slow, slowRpt, err := r.mount(true)
		if err != nil {
			t.Fatalf("checkpoint every %d ms: full-scan mount: %v", ms, err)
		}
		if slowRpt.UsedCheckpoint {
			t.Fatal("forced full scan used a checkpoint")
		}
		if 2*fastRpt.MountNs >= slowRpt.MountNs {
			t.Errorf("checkpoint every %d ms: full scan (%d ns) not twice the checkpointed mount (%d ns)", ms, slowRpt.MountNs, fastRpt.MountNs)
		}
		// Both mounts must agree on the durable mapping for every acked
		// write; the full scan may additionally resurrect newer unacked
		// data, or the copy a trim covered, so compare via the
		// ledger-audited stamps.
		for lpn := ftl.LPN(0); lpn < ftl.LPN(fast.LogicalPages()); lpn++ {
			if fast.Mapper().Lookup(lpn) != ssd.UnmappedPPN && slow.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
				t.Errorf("checkpoint every %d ms: LPN %d recovered by checkpoint mount but lost by full scan", ms, lpn)
			}
		}
		t.Logf("checkpoint every %d ms: mount %.2f ms (age %.2f ms, %d journal records, %d OOB pages, %d roll-forward wins), full scan %.2f ms (%d OOB pages)",
			ms, float64(fastRpt.MountNs)/1e6, float64(fastRpt.CheckpointAgeNs)/1e6, fastRpt.JournalRecords,
			fastRpt.OOBPagesScanned, fastRpt.RollForwardWins, float64(slowRpt.MountNs)/1e6, slowRpt.OOBPagesScanned)
	}
}

// A power cut in the middle of a refresh relocation must recover like
// any other cut: the scrub's half-moved data is either still valid at
// the old copy or remapped to the new one, never lost. The probe finds
// the event that opens each of the first four refresh cycles and the
// first event after it that lands refreshed pages (the victim is not
// yet erased then); the run is cut after each.
func TestPowerCutMidScrub(t *testing.T) {
	const seed, requests = 2718, 4000
	var cuts []uint64
	var refreshes, pages int64
	landing := false
	p, _ := probe(t, cutLife(seed, requests, 2*sim.Millisecond, true), func(l sweepLife, i uint64) {
		st := l.ctrl.Stats()
		if st.Refreshes > refreshes && st.Refreshes <= 4 {
			cuts, landing = append(cuts, i), true
		} else if st.RefreshPages > pages && landing {
			cuts, landing = append(cuts, i), false
		}
		refreshes, pages = st.Refreshes, st.RefreshPages
	})
	if p.ctrl.Stats().Refreshes == 0 {
		t.Fatal("probe run never refreshed — cuts cannot land mid-scrub")
	}
	t.Logf("%d refresh cycles; cuts after events %v", p.ctrl.Stats().Refreshes, cuts)

	for n, i := range cuts {
		ctrl, _, err := cutAt(t, seed, requests, 2*sim.Millisecond, true, i).mount(false)
		if err != nil {
			t.Errorf("cut mid-scrub after event %d: %v", i, err)
		} else if n == 0 {
			// Drive the remounted controller hard enough to run GC and the
			// patrol again: the mount path must rebuild the relocation-cause
			// and patrol state, not just the mapping.
			ctrl.Engine().RunWhile(closedLoop(t, ctrl, seed^0xA6ED, loop{hot: ctrl.LogicalPages() / 2, n: 3000, qd: 16}))
			if ctrl.Stats().GCCount == 0 {
				t.Error("post-mount traffic never ran GC — regression coverage lost")
			}
			if err := ctrl.CheckConsistency(); err != nil {
				t.Errorf("post-mount traffic on remounted scrubber: %v", err)
			}
		}
	}
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
