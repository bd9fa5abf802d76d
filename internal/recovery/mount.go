package recovery

import (
	"fmt"
	"slices"
	"sort"

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

// mapEntry is an LPN's mapping as the mount has it so far: from the
// checkpoint (oobSeq 0) or from an OOB candidate found on the media
// (oobSeq its block's sequence). A trim's tombstone maps nowhere
// (ssd.UnmappedPPN) at the trim's stamp. checked records that a
// checkpoint mapping's page was read and still holds its version.
type mapEntry struct {
	ppn     ssd.PPN
	stamp   uint64
	oobSeq  uint64
	checked bool
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

// mountState is the in-progress reconstruction.
type mountState struct {
	geo      ssd.Geometry
	mappings map[ftl.LPN]mapEntry
	free     [][]int
	actives  [][]ftl.ActiveRecord
	retired  []map[int]bool
	erased   []map[int]bool // since the checkpoint
	degraded []bool

	maxStamp    uint64 // highest stamp in durable state
	maxBlockSeq uint64
}

func newMountState(geo ssd.Geometry) *mountState {
	st := &mountState{
		geo:      geo,
		mappings: make(map[ftl.LPN]mapEntry),
		free:     make([][]int, geo.Chips),
		actives:  make([][]ftl.ActiveRecord, geo.Chips),
		retired:  make([]map[int]bool, geo.Chips),
		erased:   make([]map[int]bool, geo.Chips),
		degraded: make([]bool, geo.Chips),
	}
	for chip := 0; chip < geo.Chips; chip++ {
		st.retired[chip], st.erased[chip] = make(map[int]bool), make(map[int]bool)
	}
	return st
}

func removeBlock(s []int, block int) []int {
	return slices.DeleteFunc(s, func(b int) bool { return b == block })
}

func removeActive(s []ftl.ActiveRecord, block int) []ftl.ActiveRecord {
	return slices.DeleteFunc(s, func(a ftl.ActiveRecord) bool { return a.Block == block })
}

func (st *mountState) seed(ms ftl.MountState) {
	st.maxStamp = ms.LastStamp
	st.maxBlockSeq = ms.LastBlockSeq
	// Sized up front: growing a map to a whole L2P by doubling leaves
	// as much garbage again as the map itself.
	st.mappings = make(map[ftl.LPN]mapEntry, len(ms.Mappings))
	for _, m := range ms.Mappings {
		st.mappings[m.LPN] = mapEntry{ppn: m.PPN, stamp: m.Stamp}
	}
	for chip := 0; chip < st.geo.Chips; chip++ {
		st.free[chip] = append([]int(nil), ms.Free[chip]...)
		st.actives[chip] = append([]ftl.ActiveRecord(nil), ms.Actives[chip]...)
		for _, b := range ms.Retired[chip] {
			st.retired[chip][b] = true
		}
		st.degraded[chip] = ms.DegradedDies[chip]
	}
}

// apply replays one journal record. Every record states a fact that
// was already true when it was written, so application is
// unconditional and in journal order.
func (st *mountState) apply(r record) {
	switch r.typ {
	case recBlockOpened:
		st.free[r.chip] = removeBlock(st.free[r.chip], r.block)
		st.actives[r.chip] = append(st.actives[r.chip], ftl.ActiveRecord{Block: r.block, Seq: r.seq})
		st.maxBlockSeq = max(st.maxBlockSeq, r.seq)
	case recTrim:
		st.mappings[r.lpn] = mapEntry{ppn: ssd.UnmappedPPN, stamp: r.stamp}
		st.maxStamp = max(st.maxStamp, r.stamp)
	case recErased:
		st.erased[r.chip][r.block] = true
		st.actives[r.chip] = removeActive(st.actives[r.chip], r.block)
		st.free[r.chip] = removeBlock(st.free[r.chip], r.block) // defensive
		st.free[r.chip] = append(st.free[r.chip], r.block)
	case recRetired:
		// A retired write point stays listed until its scan: pages acked
		// into it may still wait for their evacuation.
		st.free[r.chip] = removeBlock(st.free[r.chip], r.block)
		st.retired[r.chip][r.block] = true
	case recDieDegraded:
		st.degraded[r.die] = true
	}
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
				if seq > maxSeq {
					maxSeq = seq
				}
				if lpn == ftl.UnmappedLPN {
					continue // padding page
				}
				wlIdx := l*geo.WLsPerLayer + w
				cands = append(cands, oobCand{
					lpn:      lpn,
					ppn:      geo.EncodePPN(chip, block, wlIdx, p),
					stamp:    stamp,
					blockSeq: seq,
				})
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

	st := newMountState(geo)
	var policyBytes []byte
	slot := -1
	if !opts.ForceFullScan {
		slot = sys.newestSlot()
	}
	if slot >= 0 {
		ms, pb, err := decodeCheckpoint(sys.slots[slot].data)
		if err != nil {
			slot = -1 // corrupt image: fall back to full scan
		} else {
			st.seed(ms)
			policyBytes = pb
			rpt.UsedCheckpoint = true
			rpt.CheckpointAgeNs = sys.cutAt - sys.slots[slot].at
			cost += CkptBaseNs + CkptNsPerByte*sim.Time(len(sys.slots[slot].data))
		}
	}

	var cands []oobCand
	scanned := make(map[int]uint64) // chip*BlocksPerChip+block -> max OOB seq
	scanBlock := func(chip, block int) (maxSeq uint64) {
		key := chip*geo.BlocksPerChip + block
		if seq, done := scanned[key]; done {
			return seq
		}
		chipNAND := dev.Die(chip).NAND
		c, maxSeq, wls := scanBlockOOB(chipNAND, geo, chip, block)
		cands = append(cands, c...)
		rpt.OOBPagesScanned += len(c)
		cost += OOBReadNs * sim.Time(wls)
		scanned[key] = maxSeq
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
			st.apply(r)
			rpt.JournalRecords++
		}

		// Free-pool probe: a program into a block whose BlockOpened
		// record never became durable left media evidence at the first
		// word line (every program order starts at layer 0, WL 0).
		for chip := 0; chip < geo.Chips; chip++ {
			chipNAND := dev.Die(chip).NAND
			stillFree := st.free[chip][:0]
			for _, b := range st.free[chip] {
				rpt.BlocksProbed++
				cost += OOBReadNs
				if chipNAND.IsBadBlock(b) {
					st.retired[chip][b] = true
					continue
				}
				if !chipNAND.IsProgrammed(nand.Address{Block: b}) {
					stillFree = append(stillFree, b)
					continue
				}
				rpt.DiscoveredBlocks++
				if seq := scanBlock(chip, b); seq > 0 && !blockFull(dev, geo, chip, b) {
					st.actives[chip] = append(st.actives[chip], ftl.ActiveRecord{Block: b, Seq: seq})
				}
				// No usable sequence (every page partial) or full:
				// the block stays dirty; GC reclaims it.
			}
			st.free[chip] = stillFree

			// Roll-forward scan of the open blocks, retired ones included.
			stillActive := st.actives[chip][:0]
			for _, ar := range st.actives[chip] {
				scanBlock(chip, ar.Block)
				if st.retired[chip][ar.Block] || blockFull(dev, geo, chip, ar.Block) {
					continue // retired, or filled before the cut: dirty now
				}
				stillActive = append(stillActive, ar)
			}
			st.actives[chip] = stillActive
		}
	} else {
		// Full scan: classify every block from media alone.
		for chip := 0; chip < geo.Chips; chip++ {
			chipNAND := dev.Die(chip).NAND
			var open []ftl.ActiveRecord
			for b := 0; b < geo.BlocksPerChip; b++ {
				if chipNAND.IsBadBlock(b) {
					st.retired[chip][b] = true
					continue
				}
				if chipNAND.IsErased(b) {
					rpt.BlocksProbed++
					cost += OOBReadNs
					st.free[chip] = append(st.free[chip], b)
					continue
				}
				seq := scanBlock(chip, b)
				if seq > 0 && !blockFull(dev, geo, chip, b) {
					open = append(open, ftl.ActiveRecord{Block: b, Seq: seq})
				}
			}
			// Cap re-armed write points at the policy's count; the
			// rest stay dirty and come back through GC.
			sort.Slice(open, func(i, j int) bool { return open[i].Seq > open[j].Seq })
			st.actives[chip] = open[:min(len(open), max(pol.ActiveBlocksPerChip(), 1))]
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
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].stamp != cands[j].stamp {
			return cands[i].stamp < cands[j].stamp
		}
		if cands[i].blockSeq != cands[j].blockSeq {
			return cands[i].blockSeq < cands[j].blockSeq
		}
		return cands[i].ppn < cands[j].ppn
	})
	var horizon uint64 // stamps start at 1: no candidate is at or below 0
	if globalHorizonForTest && slot >= 0 {
		horizon = st.maxStamp
	}
	for _, cand := range cands {
		st.maxBlockSeq = max(st.maxBlockSeq, cand.blockSeq)
		cur, mapped := st.mappings[cand.lpn]
		switch {
		case cand.stamp <= horizon:
			continue
		case !mapped, cand.stamp > cur.stamp:
		case cand.stamp < cur.stamp, cand.ppn == cur.ppn, cur.ppn == ssd.UnmappedPPN:
			continue
		case cur.oobSeq > 0:
			if cand.blockSeq <= cur.oobSeq {
				continue
			}
		case cur.checked || checkpointWinsTiesForTest:
			continue
		default:
			chip, block, layer, wl, page := geo.DecodePPN(cur.ppn)
			if st.erased[chip][block] {
				break // the journal says so: no need to read
			}
			cost += OOBReadNs
			lpn, stamp, _, ok := ftl.DecodeOOB(dev.Die(chip).NAND.OOB(nand.Address{Block: block, Layer: layer, WL: wl, Page: page}))
			if ok && lpn == cand.lpn && stamp == cur.stamp {
				cur.checked = true
				st.mappings[cand.lpn] = cur
				continue
			}
		}
		st.mappings[cand.lpn] = mapEntry{ppn: cand.ppn, stamp: cand.stamp, oobSeq: cand.blockSeq}
	}
	for _, e := range st.mappings {
		st.maxStamp = max(st.maxStamp, e.stamp)
		if e.oobSeq > 0 {
			rpt.RollForwardWins++
		}
	}

	// Media bad-block marks are the persistent truth: force-retire.
	for chip := 0; chip < geo.Chips; chip++ {
		chipNAND := dev.Die(chip).NAND
		for b := 0; b < geo.BlocksPerChip; b++ {
			if chipNAND.IsBadBlock(b) && !st.retired[chip][b] {
				st.retired[chip][b] = true
				st.free[chip] = removeBlock(st.free[chip], b)
				st.actives[chip] = removeActive(st.actives[chip], b)
			}
		}
	}

	// Defensive: two logical pages must never share a physical page.
	owner := make(map[ssd.PPN]ftl.LPN, len(st.mappings))
	for lpn, e := range st.mappings {
		if e.ppn == ssd.UnmappedPPN {
			continue
		}
		if prev, clash := owner[e.ppn]; clash {
			return nil, rpt, fmt.Errorf("recovery: LPNs %d and %d both recovered to PPN %d", prev, lpn, e.ppn)
		}
		owner[e.ppn] = lpn
	}
	rpt.MappingsRecovered = len(owner)

	ms := st.finalize()

	// Advance the clock by the modeled mount I/O, then build the
	// controller and let any evacuations run to completion (a GC cycle
	// alone is background work the mount does not wait for).
	eng.RunUntil(eng.Now() + cost)
	ctrl, err := ftl.NewControllerWithState(dev, pol, cfg, ms)
	if err != nil {
		return nil, rpt, err
	}
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

// finalize converts the reconstruction into the ftl.MountState the
// controller restores from, with deterministic ordering throughout.
func (st *mountState) finalize() ftl.MountState {
	ms := ftl.MountState{
		LastStamp:    st.maxStamp,
		LastBlockSeq: st.maxBlockSeq,
		Free:         st.free,
		Actives:      st.actives,
		Retired:      make([][]int, st.geo.Chips),
		DegradedDies: st.degraded,
	}
	lpns := make([]int64, 0, len(st.mappings))
	for lpn := range st.mappings {
		lpns = append(lpns, int64(lpn))
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	ms.Mappings = make([]ftl.MappingRecord, 0, len(lpns))
	for _, l := range lpns {
		e := st.mappings[ftl.LPN(l)]
		ms.Mappings = append(ms.Mappings, ftl.MappingRecord{LPN: ftl.LPN(l), PPN: e.ppn, Stamp: e.stamp})
	}
	for chip := 0; chip < st.geo.Chips; chip++ {
		for b := range st.retired[chip] {
			ms.Retired[chip] = append(ms.Retired[chip], b)
		}
		sort.Ints(ms.Retired[chip])
	}
	return ms
}
