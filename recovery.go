package cubeftl

// Crash-consistency facade (DESIGN.md §12): power-cut injection and
// the recovery mount. Enable with Options.Recovery; the flash array
// and the checkpointed system area survive PowerCut, everything else
// (engine, controller, buffered writes, in-flight programs) is lost,
// and Remount rebuilds the device from the durable state alone.

import (
	"fmt"
	"time"

	"cubeftl/internal/sim"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// ErrRecoveryOff reports a recovery API called on an SSD built without
// Options.Recovery.
var ErrRecoveryOff = stack.ErrRecoveryOff

// RecoveryEnabled reports whether the SSD runs the crash-consistency
// subsystem.
func (s *SSD) RecoveryEnabled() bool { return s.st.Mgr != nil }

// CheckpointNow requests an immediate checkpoint (it still takes
// simulated time to write; a power cut during the write leaves the
// previous checkpoint slot intact).
func (s *SSD) CheckpointNow() error {
	if s.st.Mgr == nil {
		return ErrRecoveryOff
	}
	s.st.Mgr.CheckpointNow()
	return nil
}

// AckedWrites returns how many distinct logical pages currently hold a
// durably-acknowledged write — the set Remount's verifier audits.
func (s *SSD) AckedWrites() int {
	if s.st.Mgr == nil {
		return 0
	}
	return s.st.Mgr.Ledger().Writes()
}

// PowerCut kills the device at the current simulated instant: buffered
// writes that never reached flash are dropped, in-flight word-line
// programs are torn mid-ISPP, an in-flight erase leaves the block
// half-erased, and only a prefix of the un-flushed journal reaches the
// system area. Until Remount every host entry point fails with
// ErrPowerLost (those that return no error do nothing).
func (s *SSD) PowerCut() error { return s.st.PowerCut() }

// MountReport summarizes one recovery mount (facade view of the
// internal report; see DESIGN.md §12 for the mount state machine).
type MountReport struct {
	// MountTime is the modeled mount latency: checkpoint read, journal
	// replay, free-pool probes, OOB scans, and evacuation I/O.
	MountTime time.Duration
	// UsedCheckpoint is false for a full-scan mount.
	UsedCheckpoint bool
	// CheckpointAge is how stale the newest checkpoint was when power
	// died (0 on full scan).
	CheckpointAge time.Duration

	JournalRecords int  // valid journal records replayed
	JournalTorn    bool // the journal tail failed framing/CRC

	BlocksProbed      int // free-pool probes (one word-line read each)
	DiscoveredBlocks  int // blocks found programmed that durable state called free
	OOBPagesScanned   int // spare-area records read during roll-forward
	MappingsRecovered int // live L2P entries after the mount
	RollForwardWins   int // mappings recovered from OOB past the durable state
	EvacuationsQueued int // retired-with-live blocks evacuated at mount

	// Verified is true when the full-device verifier ran and passed:
	// internal consistency, L2P <-> OOB agreement, payload integrity
	// (with Options.VerifyData), and zero lost acked writes.
	Verified bool
}

// Remount rebuilds the SSD after a power cut: a fresh controller mounts
// from the newest valid checkpoint, replays the journal, roll-forward
// scans open blocks' spare areas, and re-arms the write points.
// fullScan ignores the checkpoint and journal and rebuilds from OOB
// metadata alone (the worst-case mount). verify then runs the
// full-device consistency audit — including that every write
// acknowledged to the host before the cut is still readable — and
// fails the remount if any check trips. Telemetry does not survive a
// remount; re-enable it afterwards if needed.
func (s *SSD) Remount(verify, fullScan bool) (MountReport, error) {
	rpt, err := s.st.Remount(verify, fullScan)
	out := MountReport{
		MountTime:         time.Duration(rpt.MountNs),
		UsedCheckpoint:    rpt.UsedCheckpoint,
		CheckpointAge:     time.Duration(rpt.CheckpointAgeNs),
		JournalRecords:    rpt.JournalRecords,
		JournalTorn:       rpt.JournalTorn,
		BlocksProbed:      rpt.BlocksProbed,
		DiscoveredBlocks:  rpt.DiscoveredBlocks,
		OOBPagesScanned:   rpt.OOBPagesScanned,
		MappingsRecovered: rpt.MappingsRecovered,
		RollForwardWins:   rpt.RollForwardWins,
		EvacuationsQueued: rpt.EvacuationsQueued,
		Verified:          verify && err == nil,
	}
	if err != nil {
		return out, err
	}
	s.adopt()
	s.hub, s.sampler = nil, nil
	s.outstanding = 0
	return out, nil
}

// RunWorkloadUntil drives the named workload like RunWorkload but, given
// a positive deadline, halts the simulation at that absolute simulated
// time without draining: buffered writes, in-flight programs, and
// possibly active GC are left mid-flight. This is the setup for
// PowerCut — run to the cut instant, cut, then Remount. The returned
// stats cover the requests that completed before the deadline.
func (s *SSD) RunWorkloadUntil(name string, requests, queueDepth int, deadline time.Duration) (RunStats, error) {
	prof, ok := workload.ByName(name)
	if !ok {
		return RunStats{}, fmt.Errorf("cubeftl: unknown workload %q (have %v)", name, Workloads())
	}
	gen := workload.NewStream(prof, s.ctrl.LogicalPages(), s.dev.Config().Seed+0xABCD)
	return s.run(gen, workload.RunConfig{Requests: requests, QueueDepth: queueDepth, DeadlineNs: sim.Time(deadline)})
}
