package recovery

import (
	"cmp"
	"fmt"
	"slices"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// MountOptions controls the recovery mount.
type MountOptions struct {
	// ForceFullScan ignores checkpoints and the journal and rebuilds
	// everything from OOB metadata alone — the worst-case mount used
	// for the mount-time comparison.
	ForceFullScan bool
}

// MountReport summarizes one recovery mount.
type MountReport struct {
	// MountNs is the modeled mount latency: checkpoint read, journal
	// replay, free-pool probes, OOB scans, and any evacuation I/O.
	MountNs sim.Time

	// UsedCheckpoint is false for a full-scan mount.
	UsedCheckpoint bool
	// CheckpointAgeNs is how stale the newest checkpoint was at the
	// moment power died (0 on full scan).
	CheckpointAgeNs sim.Time

	JournalRecords int  // valid records replayed
	JournalTorn    bool // the journal tail failed framing/CRC

	BlocksProbed     int // free-pool probes (one WL read each)
	DiscoveredBlocks int // blocks found programmed that durable state called free
	OOBPagesScanned  int // spare-area records read during roll-forward

	MappingsRecovered int // live L2P entries after the mount
	RollForwardWins   int // mappings the checkpoint did not have: recovered from OOB alone
	EvacuationsQueued int // retired-with-live blocks queued for evacuation
}

// globalHorizonForTest brings back the roll-forward rule acks outgrew: a
// candidate also had to be newer than every stamp the checkpoint and
// journal held. checkpointWinsTiesForTest lets a checkpoint mapping stand
// at every tie, unread. Only the exhaustive cut sweep's negative controls
// set them (export_test.go), to show those rules lose acked writes.
var globalHorizonForTest, checkpointWinsTiesForTest bool

// oobCand is one valid spare-area record found by the scan.
type oobCand struct {
	lpn      ftl.LPN
	ppn      ssd.PPN
	stamp    uint64
	blockSeq uint64
}

// mountState is the in-progress reconstruction: ms, the state
// ftl.NewControllerWithState adopts, and the block sets as flags indexed
// by chip*BlocksPerChip+block.
type mountState struct {
	geo     ssd.Geometry
	ms      ftl.MountState
	retired []bool
	erased  []bool // since the checkpoint
	scanned []bool // spare areas read
}

// block returns a block's index into the block sets.
func (st *mountState) block(chip, block int) int { return chip*st.geo.BlocksPerChip + block }

func removeBlock(s []int, block int) []int {
	return slices.DeleteFunc(s, func(b int) bool { return b == block })
}

// apply replays one journal record. Every record states a fact that
// was already true when it was written, so application is
// unconditional and in journal order; a record naming a chip, block or
// page the device does not have is an error.
func (st *mountState) apply(r record) error {
	geo, ms := st.geo, &st.ms
	// A field the record does not carry is 0, which every device has.
	if r.chip >= geo.Chips || r.block >= geo.BlocksPerChip || r.die >= geo.Chips || r.lpn < 0 || int(r.lpn) >= len(ms.L2P) {
		return fmt.Errorf("recovery: journal record %+v names what the device does not have", r)
	}
	switch r.typ {
	case recBlockOpened:
		ms.Free[r.chip] = removeBlock(ms.Free[r.chip], r.block)
		ms.Actives[r.chip] = append(ms.Actives[r.chip], ftl.ActiveRecord{Block: r.block, Seq: r.seq})
		ms.LastBlockSeq = max(ms.LastBlockSeq, r.seq)
	case recTrim:
		ms.L2P[r.lpn], ms.Stamps[r.lpn] = ssd.UnmappedPPN, r.stamp
		ms.LastStamp = max(ms.LastStamp, r.stamp)
	case recErased:
		st.erased[st.block(r.chip, r.block)] = true
		ms.Actives[r.chip] = slices.DeleteFunc(ms.Actives[r.chip], func(a ftl.ActiveRecord) bool { return a.Block == r.block })
		ms.Free[r.chip] = removeBlock(ms.Free[r.chip], r.block) // defensive
		ms.Free[r.chip] = append(ms.Free[r.chip], r.block)
	case recRetired:
		// A retired write point stays listed until its scan: pages acked
		// into it may still wait for their evacuation.
		ms.Free[r.chip] = removeBlock(ms.Free[r.chip], r.block)
		st.retired[st.block(r.chip, r.block)] = true
	case recDieDegraded:
		ms.DegradedDies[r.die] = true
	}
	return nil
}

// scanBlockOOB reads every spare-area record of a block, returning the
// valid candidates, the highest block sequence seen, and the count of
// programmed word lines (for cost accounting).
func scanBlockOOB(chipNAND *nand.Chip, geo ssd.Geometry, chip, block int) (cands []oobCand, maxSeq uint64, wlsRead int) {
	for l := 0; l < geo.Layers; l++ {
		for w := 0; w < geo.WLsPerLayer; w++ {
			a := nand.Address{Block: block, Layer: l, WL: w}
			if !chipNAND.IsProgrammed(a) || chipNAND.IsPartial(a) {
				continue
			}
			wlsRead++
			pages := geo.PagesPerBlock() / geo.WLsPerBlock()
			for p := 0; p < pages; p++ {
				a.Page = p
				lpn, stamp, seq, ok := ftl.DecodeOOB(chipNAND.OOB(a))
				if !ok {
					continue
				}
				maxSeq = max(maxSeq, seq)
				if lpn != ftl.UnmappedLPN { // else a padding page
					cands = append(cands, oobCand{lpn, geo.EncodePPN(chip, block, l*geo.WLsPerLayer+w, p), stamp, seq})
				}
			}
		}
	}
	return cands, maxSeq, wlsRead
}

// Mount rebuilds a consistent controller from the surviving media and
// system area after a power cut. dev must be a fresh ssd.NewWithArray
// device over the surviving nand.Array on a fresh engine; pol a fresh
// policy instance (its learned state is restored from the checkpoint
// when both sides support it).
//
// The mount state machine:
//
//  1. read the newest valid checkpoint slot (torn slots fail CRC and
//     are skipped); no valid slot or ForceFullScan selects full scan;
//  2. replay the journal: every validly framed record at or past the
//     checkpoint's cutoff, stopping at the torn tail;
//  3. probe each supposedly-free block's first word line: programmed
//     means the block was opened after the last durable record — scan
//     its OOB and treat it as discovered;
//  4. roll-forward: scan the OOB of every open/discovered block and
//     apply each record newer than its LPN's mapping or tombstone; at
//     equal stamp a copy beats a checkpoint mapping whose page no longer
//     holds that version;
//  5. force-retire every block the media marks bad, rebuild cursors
//     from media occupancy, re-arm write points, and queue retired
//     blocks still holding live pages for evacuation.
//
// Mount advances the fresh engine by the modeled latency of all that
// I/O and runs any queued evacuations to completion before returning.
func Mount(dev *ssd.Device, pol ftl.Policy, cfg ftl.ControllerConfig, sys *SystemArea, opts MountOptions) (*ftl.Controller, MountReport, error) {
	eng := dev.Engine()
	geo := dev.Geometry()
	var rpt MountReport
	var cost sim.Time

	var ms ftl.MountState
	var policyBytes []byte
	slot := -1
	if !opts.ForceFullScan {
		slot = sys.newestSlot()
	}
	if slot >= 0 {
		var err error
		if ms, policyBytes, err = decodeCheckpoint(sys.slots[slot].data, geo); err != nil {
			slot = -1 // corrupt image: fall back to full scan
		} else {
			rpt.UsedCheckpoint = true
			rpt.CheckpointAgeNs = sys.cutAt - sys.slots[slot].at
			cost += CkptBaseNs + CkptNsPerByte*sim.Time(len(sys.slots[slot].data))
		}
	}
	if slot < 0 {
		ms = ftl.NewMountState(geo)
	}
	blocks := geo.Chips * geo.BlocksPerChip
	st := &mountState{geo: geo, ms: ms, retired: make([]bool, blocks), erased: make([]bool, blocks), scanned: make([]bool, blocks)}
	for chip, bs := range ms.Retired {
		for _, b := range bs {
			st.retired[st.block(chip, b)] = true
		}
	}
	free, actives := ms.Free, ms.Actives

	// scanBlock reads a block's spare areas once, returning the highest
	// block sequence they carry; a block already scanned adds nothing.
	var cands []oobCand
	scanBlock := func(chip, block int) (maxSeq uint64) {
		if st.scanned[st.block(chip, block)] {
			return 0
		}
		st.scanned[st.block(chip, block)] = true
		c, maxSeq, wls := scanBlockOOB(dev.Die(chip).NAND, geo, chip, block)
		cands = append(cands, c...)
		rpt.OOBPagesScanned += len(c)
		cost += OOBReadNs * sim.Time(wls)
		return maxSeq
	}

	if slot >= 0 {
		// Journal replay.
		recs, offs, torn := decodeJournal(sys.journal)
		rpt.JournalTorn = torn
		cost += CkptBaseNs + CkptNsPerByte*sim.Time(len(sys.journal))
		cutoff := sys.slots[slot].cutoff
		for i, r := range recs {
			if sys.base+uint64(offs[i]) < cutoff {
				continue // fact already covered by the checkpoint
			}
			if err := st.apply(r); err != nil {
				return nil, rpt, err
			}
			rpt.JournalRecords++
		}

		// Free-pool probe: a program into a block whose BlockOpened
		// record never became durable left media evidence at the first
		// word line (every program order starts at layer 0, WL 0).
		for chip := 0; chip < geo.Chips; chip++ {
			chipNAND := dev.Die(chip).NAND
			stillFree := free[chip][:0]
			for _, b := range free[chip] {
				rpt.BlocksProbed++
				cost += OOBReadNs
				if chipNAND.IsBadBlock(b) {
					st.retired[st.block(chip, b)] = true
					continue
				}
				if !chipNAND.IsProgrammed(nand.Address{Block: b}) {
					stillFree = append(stillFree, b)
					continue
				}
				rpt.DiscoveredBlocks++
				if seq := scanBlock(chip, b); seq > 0 && !blockFull(dev, geo, chip, b) {
					actives[chip] = append(actives[chip], ftl.ActiveRecord{Block: b, Seq: seq})
				}
				// No usable sequence (every page partial) or full:
				// the block stays dirty; GC reclaims it.
			}
			free[chip] = stillFree

			// Roll-forward scan of the open blocks, retired ones included.
			stillActive := actives[chip][:0]
			for _, ar := range actives[chip] {
				scanBlock(chip, ar.Block)
				if st.retired[st.block(chip, ar.Block)] || blockFull(dev, geo, chip, ar.Block) {
					continue // retired, or filled before the cut: dirty now
				}
				stillActive = append(stillActive, ar)
			}
			actives[chip] = stillActive
		}
	} else {
		// Full scan: classify every block from media alone.
		for chip := 0; chip < geo.Chips; chip++ {
			chipNAND := dev.Die(chip).NAND
			var open []ftl.ActiveRecord
			for b := 0; b < geo.BlocksPerChip; b++ {
				if chipNAND.IsBadBlock(b) {
					st.retired[st.block(chip, b)] = true
					continue
				}
				if chipNAND.IsErased(b) {
					rpt.BlocksProbed++
					cost += OOBReadNs
					free[chip] = append(free[chip], b)
					continue
				}
				seq := scanBlock(chip, b)
				if seq > 0 && !blockFull(dev, geo, chip, b) {
					open = append(open, ftl.ActiveRecord{Block: b, Seq: seq})
				}
			}
			// Cap re-armed write points at the policy's count; the
			// rest stay dirty and come back through GC.
			slices.SortFunc(open, func(a, b ftl.ActiveRecord) int { return cmp.Compare(b.Seq, a.Seq) })
			actives[chip] = open[:min(len(open), max(pol.ActiveBlocksPerChip(), 1))]
		}
	}

	// Resolve the OOB candidates against the replayed state, one LPN at a
	// time and by one rule on either path: a stamp strictly newer than the
	// LPN's entry wins (the roll-forward — a write is acked once its page is
	// programmed, and programs complete out of stamp order, so no global
	// horizon will do), and a trim's tombstone is an entry like any other.
	// An equal stamp is a relocated copy of the same version. Among copies
	// on the media the one in the younger block wins. Against a checkpoint
	// mapping the media decides: the checkpoint's page stands while its OOB
	// still names this LPN and stamp, and not once GC has erased or reused
	// it — the relocation that made the copy is recorded nowhere else.
	//
	// Each LPN is resolved on its own, so only the order of its own
	// candidates matters: by stamp, then block sequence, then PPN. Sorted
	// by LPN first, they form one run per LPN, resolved with the LPN's
	// entry in hand and written back to the tables once.
	slices.SortFunc(cands, func(a, b oobCand) int {
		switch {
		case a.lpn != b.lpn:
			return cmp.Compare(a.lpn, b.lpn)
		case a.stamp != b.stamp:
			return cmp.Compare(a.stamp, b.stamp)
		case a.blockSeq != b.blockSeq:
			return cmp.Compare(a.blockSeq, b.blockSeq)
		}
		return cmp.Compare(a.ppn, b.ppn)
	})
	var horizon uint64 // stamps start at 1: no candidate is at or below 0
	if globalHorizonForTest && slot >= 0 {
		horizon = st.ms.LastStamp
	}
	l2p, stamps := st.ms.L2P, st.ms.Stamps
	for i := 0; i < len(cands); {
		lpn := cands[i].lpn
		if lpn < 0 || int(lpn) >= len(l2p) {
			return nil, rpt, fmt.Errorf("recovery: a spare area names LPN %d, the device exports %d", lpn, len(l2p))
		}
		// The LPN's entry so far: from the checkpoint or the journal
		// (oobSeq 0), or the candidate that won (oobSeq its block's
		// sequence). checked records that a checkpoint mapping's page was
		// read and still holds its version.
		ppn, stamp, oobSeq, checked := l2p[lpn], stamps[lpn], uint64(0), false
		for ; i < len(cands) && cands[i].lpn == lpn; i++ {
			cand := cands[i]
			st.ms.LastBlockSeq = max(st.ms.LastBlockSeq, cand.blockSeq)
			switch {
			case cand.stamp <= horizon:
				continue
			case stamp == 0, cand.stamp > stamp:
			case cand.stamp < stamp, cand.ppn == ppn, ppn == ssd.UnmappedPPN:
				continue
			case oobSeq > 0:
				if cand.blockSeq <= oobSeq {
					continue
				}
			case checked || checkpointWinsTiesForTest:
				continue
			default:
				chip, block, layer, wl, page := geo.DecodePPN(ppn)
				if st.erased[st.block(chip, block)] {
					break // the journal says so: no need to read
				}
				cost += OOBReadNs
				oobLPN, oobStamp, _, ok := ftl.DecodeOOB(dev.Die(chip).NAND.OOB(nand.Address{Block: block, Layer: layer, WL: wl, Page: page}))
				if ok && oobLPN == lpn && oobStamp == stamp {
					checked = true
					continue
				}
			}
			ppn, stamp, oobSeq, checked = cand.ppn, cand.stamp, cand.blockSeq, false
		}
		l2p[lpn], stamps[lpn] = ppn, stamp
		st.ms.LastStamp = max(st.ms.LastStamp, stamp)
		if oobSeq > 0 {
			rpt.RollForwardWins++
		}
	}

	// Media bad-block marks are the persistent truth: force-retire. Each
	// chip's retired blocks are then listed, in ascending order.
	ms = st.ms
	for chip := 0; chip < geo.Chips; chip++ {
		chipNAND := dev.Die(chip).NAND
		ms.Retired[chip] = ms.Retired[chip][:0]
		for b := 0; b < geo.BlocksPerChip; b++ {
			if chipNAND.IsBadBlock(b) && !st.retired[st.block(chip, b)] {
				st.retired[st.block(chip, b)] = true
				free[chip] = removeBlock(free[chip], b)
				actives[chip] = slices.DeleteFunc(actives[chip], func(a ftl.ActiveRecord) bool { return a.Block == b })
			}
			if st.retired[st.block(chip, b)] {
				ms.Retired[chip] = append(ms.Retired[chip], b)
			}
		}
	}

	// Advance the clock by the modeled mount I/O, then build the
	// controller — which adopts the tables and refuses a mapping the
	// device cannot hold — and let any evacuations run to completion (a
	// GC cycle alone is background work the mount does not wait for).
	eng.RunUntil(eng.Now() + cost)
	ctrl, err := ftl.NewControllerWithState(dev, pol, cfg, ms)
	if err != nil {
		return nil, rpt, err
	}
	rpt.MappingsRecovered = ctrl.Mapper().Mapped()
	if len(policyBytes) > 0 {
		if ps, ok := pol.(ftl.PolicyStateSaver); ok {
			if err := ps.RestoreState(policyBytes); err != nil {
				return nil, rpt, fmt.Errorf("recovery: policy state: %w", err)
			}
		}
	}
	for chip := range ms.Retired {
		for _, b := range ms.Retired[chip] {
			if ctrl.Mapper().ValidCount(chip, b) > 0 {
				rpt.EvacuationsQueued++
			}
		}
	}
	if rpt.EvacuationsQueued > 0 {
		eng.RunWhile(ctrl.GCActiveAny)
	}
	rpt.MountNs = eng.Now()
	return ctrl, rpt, nil
}

func blockFull(dev *ssd.Device, geo ssd.Geometry, chip, block int) bool {
	chipNAND := dev.Die(chip).NAND
	for l := 0; l < geo.Layers; l++ {
		for w := 0; w < geo.WLsPerLayer; w++ {
			if !chipNAND.IsProgrammed(nand.Address{Block: block, Layer: l, WL: w}) {
				return false
			}
		}
	}
	return true
}
