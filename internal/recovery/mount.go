package recovery

import (
	"fmt"
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
	RollForwardWins   int // mappings recovered from OOB past the durable state
	EvacuationsQueued int // retired-with-live blocks queued for evacuation
}

// mapOrigin distinguishes where a recovered mapping came from, for the
// equal-stamp tiebreak (journal-derived beats OOB at equal stamp; among
// OOB entries the higher block sequence wins).
type mapEntry struct {
	ppn    ssd.PPN
	stamp  uint64
	oobSeq uint64 // 0: from checkpoint/journal
}

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
		degraded: make([]bool, geo.Chips),
	}
	for chip := 0; chip < geo.Chips; chip++ {
		st.retired[chip] = make(map[int]bool)
	}
	return st
}

func removeBlock(s []int, block int) []int {
	for i, b := range s {
		if b == block {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeActive(s []ftl.ActiveRecord, block int) []ftl.ActiveRecord {
	for i, a := range s {
		if a.Block == block {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
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
func (st *mountState) apply(r Record) {
	switch r.Type {
	case recBlockOpened:
		st.free[r.Chip] = removeBlock(st.free[r.Chip], r.Block)
		st.actives[r.Chip] = append(st.actives[r.Chip], ftl.ActiveRecord{Block: r.Block, Seq: r.Seq})
		if r.Seq > st.maxBlockSeq {
			st.maxBlockSeq = r.Seq
		}
	case recMapped:
		st.mappings[r.LPN] = mapEntry{ppn: r.PPN, stamp: r.Stamp}
		if r.Stamp > st.maxStamp {
			st.maxStamp = r.Stamp
		}
	case recTrim:
		delete(st.mappings, r.LPN)
	case recErased:
		st.actives[r.Chip] = removeActive(st.actives[r.Chip], r.Block)
		st.free[r.Chip] = removeBlock(st.free[r.Chip], r.Block) // defensive
		st.free[r.Chip] = append(st.free[r.Chip], r.Block)
	case recRetired:
		st.free[r.Chip] = removeBlock(st.free[r.Chip], r.Block)
		st.actives[r.Chip] = removeActive(st.actives[r.Chip], r.Block)
		st.retired[r.Chip][r.Block] = true
	case recDieDegraded:
		st.degraded[r.Die] = true
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
//     apply records whose stamp exceeds the durable state's;
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

			// Roll-forward scan of the open blocks.
			stillActive := st.actives[chip][:0]
			for _, ar := range st.actives[chip] {
				scanBlock(chip, ar.Block)
				if blockFull(dev, geo, chip, ar.Block) {
					continue // filled before the cut: dirty now
				}
				stillActive = append(stillActive, ar)
			}
			st.actives[chip] = stillActive
		}
	} else {
		// Full scan: classify every block from media alone.
		rpt.CheckpointAgeNs = 0
		for chip := 0; chip < geo.Chips; chip++ {
			chipNAND := dev.Die(chip).NAND
			type openBlock struct {
				block int
				seq   uint64
			}
			var open []openBlock
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
					open = append(open, openBlock{block: b, seq: seq})
				}
			}
			// Cap re-armed write points at the policy's count; the
			// rest stay dirty and come back through GC.
			want := pol.ActiveBlocksPerChip()
			if want < 1 {
				want = 1
			}
			sort.Slice(open, func(i, j int) bool { return open[i].seq > open[j].seq })
			if len(open) > want {
				open = open[:want]
			}
			for _, ob := range open {
				st.actives[chip] = append(st.actives[chip], ftl.ActiveRecord{Block: ob.block, Seq: ob.seq})
			}
		}
	}

	// Resolve the OOB candidates against the durable state: strictly
	// newer stamps win (the roll-forward); at equal stamp the
	// journal-derived mapping stands, and among OOB entries the copy in
	// the younger block (higher sequence) wins — both copies of a GC
	// relocation hold identical data.
	durableStamp := st.maxStamp
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].stamp != cands[j].stamp {
			return cands[i].stamp < cands[j].stamp
		}
		if cands[i].blockSeq != cands[j].blockSeq {
			return cands[i].blockSeq < cands[j].blockSeq
		}
		return cands[i].ppn < cands[j].ppn
	})
	for _, cand := range cands {
		if cand.blockSeq > st.maxBlockSeq {
			st.maxBlockSeq = cand.blockSeq
		}
		cur, mapped := st.mappings[cand.lpn]
		switch {
		case slot < 0: // full scan: OOB is the only source of truth
			if !mapped || cand.stamp > cur.stamp ||
				(cand.stamp == cur.stamp && cand.blockSeq > cur.oobSeq) {
				st.mappings[cand.lpn] = mapEntry{ppn: cand.ppn, stamp: cand.stamp, oobSeq: cand.blockSeq}
			}
		case cand.stamp > durableStamp && (!mapped || cand.stamp > cur.stamp ||
			(cand.stamp == cur.stamp && cur.oobSeq > 0 && cand.blockSeq > cur.oobSeq)):
			if !mapped || cand.stamp > cur.stamp {
				rpt.RollForwardWins++
			}
			st.mappings[cand.lpn] = mapEntry{ppn: cand.ppn, stamp: cand.stamp, oobSeq: cand.blockSeq}
		}
	}
	for _, e := range st.mappings {
		if e.stamp > st.maxStamp {
			st.maxStamp = e.stamp
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
		if prev, clash := owner[e.ppn]; clash {
			return nil, rpt, fmt.Errorf("recovery: LPNs %d and %d both recovered to PPN %d", prev, lpn, e.ppn)
		}
		owner[e.ppn] = lpn
	}

	ms := st.finalize()
	rpt.MappingsRecovered = len(ms.Mappings)

	// Advance the clock by the modeled mount I/O, then build the
	// controller and let any evacuations run to completion.
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
	eng.RunWhile(ctrl.GCActiveAny)
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
