package nand

import (
	"fmt"

	"cubeftl/internal/process"
	"cubeftl/internal/vth"
)

// ProgramParams are the per-operation overrides an FTL can apply through
// the Set-Features interface before programming a word line. The zero
// value is the chip's default (conservative) parameter set.
type ProgramParams struct {
	// SkipVFY[i] is the number of leading verify steps to skip for
	// program state P(i+1) (§4.1.1). Skipping more than the state's
	// safe budget over-programs fast cells and raises the stored BER.
	SkipVFY [vth.ProgramStates]int

	// StartMarginMV raises V_Start and FinalMarginMV lowers V_Final
	// (§4.1.2), shrinking the ISPP window. Together they remove
	// (Start+Final)/DeltaVISPP loops.
	StartMarginMV int
	FinalMarginMV int

	// ISPPStepMV overrides the ISPP step size (0 = the default
	// vth.DeltaVISPPmV). Larger steps finish in fewer loops but widen
	// the programmed distributions (Pan et al. [31]); the related-work
	// ispFTL baseline drives this knob.
	ISPPStepMV int
}

// IsDefault reports whether p requests no overrides (a leader-style
// program needs no Set-Features load).
func (p ProgramParams) IsDefault() bool {
	if p.StartMarginMV != 0 || p.FinalMarginMV != 0 || p.ISPPStepMV != 0 {
		return false
	}
	for _, s := range p.SkipVFY {
		if s != 0 {
			return false
		}
	}
	return true
}

// TotalSkips returns the sum of requested verify skips.
func (p ProgramParams) TotalSkips() int {
	t := 0
	for _, s := range p.SkipVFY {
		t += s
	}
	return t
}

// ProgramResult reports one word-line program: its latency, the
// micro-operation counts behind it, and the measurements the OPM
// monitors on leader word lines.
type ProgramResult struct {
	LatencyNs int64

	Loops    int // ISPP loops executed
	Verifies int // verify steps executed
	Skipped  int // verify steps skipped relative to default parameters

	// Windows are the observed cumulative loop-completion intervals per
	// program state (P1..P7), as monitored during this program. For any
	// other word line on the same h-layer these are virtually identical
	// — the horizontal process similarity.
	Windows [vth.ProgramStates]process.LoopWindow

	// BerEP1 is the measured E<->P1 error rate after programming (the
	// health indicator behind the S_M margin computation).
	BerEP1 float64

	// MeasuredBER estimates the post-program BER via the Get-Features
	// status check (§4.1.4). A value far above the h-layer's recent
	// history signals an improperly programmed word line.
	MeasuredBER float64

	// Suspect indicates the chip-internal program-status check flagged
	// the operation (set when a disturbance degraded it).
	Suspect bool
}

// ProgramWL programs all three pages of a word line in one shot. pages
// may be nil when the chip does not store data; otherwise it must hold
// vth.PagesPerWL byte slices.
func (c *Chip) ProgramWL(a Address, pages [][]byte, params ProgramParams) (ProgramResult, error) {
	var res ProgramResult
	err := c.ProgramWLOOB(a, pages, nil, params, &res)
	return res, err
}

// ProgramWLOOB is ProgramWL with per-page out-of-band metadata, filling
// the caller's result in place (a timed device program fills its op
// record's). The OOB is stored regardless of StoreData — it is the
// spare area the recovery subsystem scans to rebuild the mapping — and
// must hold vth.PagesPerWL slices when non-nil.
func (c *Chip) ProgramWLOOB(a Address, pages, oob [][]byte, params ProgramParams, res *ProgramResult) error {
	*res = ProgramResult{}
	if err := c.checkAddr(Address{Block: a.Block, Layer: a.Layer, WL: a.WL}); err != nil {
		return err
	}
	blk := &c.blocks[a.Block]
	if blk.bad {
		return badBlockErr(a.Block)
	}
	st := &blk.wls[c.wlIndex(a)]
	if st.programmed {
		return fmt.Errorf("%w: %v", ErrNotErased, a)
	}
	if c.cfg.StoreData && len(pages) != vth.PagesPerWL {
		return fmt.Errorf("nand: ProgramWL of %v needs %d pages, got %d", a, vth.PagesPerWL, len(pages))
	}
	if oob != nil {
		if len(oob) != vth.PagesPerWL {
			return fmt.Errorf("nand: ProgramWLOOB of %v needs %d OOB slices, got %d", a, vth.PagesPerWL, len(oob))
		}
		for _, b := range oob {
			if len(b) > maxOOBRecord {
				return fmt.Errorf("nand: ProgramWLOOB of %v: %d-byte OOB record exceeds the %d-byte spare area", a, len(b), maxOOBRecord)
			}
		}
	}

	// Program-time aging: wear matters, retention does not (data is new).
	ag := process.Aging{PE: blk.pe}
	windows := c.model.LoopWindows(a.Block, a.Layer, ag)

	// An environmental disturbance (temperature surge) shifts this
	// word line's actual completion windows, invalidating any
	// leader-derived skip plan (§4.1.4).
	disturbShift := 0
	if c.disturbProb > 0 && c.src.Bool(c.disturbProb) {
		disturbShift = 2
	}

	// Window tightening: raising V_Start shifts every completion
	// earlier; lowering V_Final trims tail loops.
	// Whole loops are saved by the combined margin; the V_Start share
	// additionally shifts every completion window earlier.
	startLoops := vth.LoopsSaved(params.StartMarginMV)
	totalLoopsSaved := vth.LoopsSaved(params.StartMarginMV + params.FinalMarginMV)
	effMaxLoop := vth.DefaultMaxLoop - totalLoopsSaved
	if effMaxLoop < 1 {
		effMaxLoop = 1
	}

	// An enlarged ISPP step compresses every loop count proportionally
	// (cells cross their targets in fewer, bigger pulses).
	step := params.ISPPStepMV
	if step <= 0 {
		step = vth.DeltaVISPPmV
	}
	scaleLoop := func(n int) int {
		if step == vth.DeltaVISPPmV {
			return n
		}
		v := (n*vth.DeltaVISPPmV + step - 1) / step
		if v < 1 {
			v = 1
		}
		return v
	}
	effMaxLoop = scaleLoop(effMaxLoop)

	var eff [vth.ProgramStates]process.LoopWindow
	loops := 1
	for i, w := range windows {
		lo := scaleLoop(w.MinLoop) - startLoops + disturbShift
		hi := scaleLoop(w.MaxLoop) - startLoops + disturbShift
		if lo < 1 {
			lo = 1
		}
		if hi > effMaxLoop {
			hi = effMaxLoop
		}
		if hi < 1 {
			hi = 1
		}
		if lo > hi {
			lo = hi
		}
		eff[i] = process.LoopWindow{MinLoop: lo, MaxLoop: hi}
		if hi > loops {
			loops = hi
		}
	}

	// Verify accounting: with default parameters the chip verifies
	// state Pi in every loop 1..MaxLoop(Pi); a skip plan suppresses the
	// first SkipVFY[i] of those.
	verifies, skipped := 0, 0
	maxPenalty := 1.0
	for i, w := range eff {
		skip := params.SkipVFY[i]
		if skip < 0 {
			skip = 0
		}
		v := w.MaxLoop - skip
		if v < 0 {
			v = 0
		}
		verifies += v
		skipped += w.MaxLoop - v
		safe := w.MinLoop - 1
		if p := vth.SkipBERPenalty(skip, safe); p > maxPenalty {
			maxPenalty = p
		}
	}

	latency := int64(vth.TWriteSetupNs) + int64(loops)*vth.TPGMNs + int64(verifies)*vth.TVFYNs
	if !params.IsDefault() {
		latency += vth.TParamSetNs
	}

	// Injected program-status failure: the chip ran the full ISPP
	// sequence but its internal status check reports the word line did
	// not program. The word line's contents are indeterminate (any
	// stray read must fail ECC) and the controller should retire the
	// block after rewriting the data elsewhere.
	if c.programFault(a) {
		st.programmed = true
		st.paramPenalty = 1e9 // garbage: unreadable at any offset
		// The spare area is as indeterminate as the payload: the word
		// line gets neither, and its neighbours' records stay where they are.
		c.stats.ProgramFails++
		res.LatencyNs = latency
		return fmt.Errorf("%w: %v", ErrProgramFail, a)
	}

	// Stored reliability: parameter aggressiveness multiplies the
	// process BER; a disturbance also degrades the margin adjustment.
	paramPenalty := maxPenalty *
		vth.MarginBERPenalty(params.StartMarginMV+params.FinalMarginMV) *
		vth.ISPPStepPenalty(step)
	if disturbShift != 0 {
		paramPenalty *= 2.5
	}
	st.programmed = true
	st.paramPenalty = paramPenalty
	if c.cfg.StoreData {
		blk.storePages(c.wlIndex(a), pages)
	}
	if oob != nil {
		c.storeOOB(a.Block, st, oob)
	}

	// Post-program measurements (Get-Features). Measurement noise is
	// small and multiplicative.
	noise := 1 + 0.05*c.src.NormFloat64()
	if noise < 0.8 {
		noise = 0.8
	}
	progAging := c.aging(a.Block)
	measured := c.model.BER(a.Block, a.Layer, a.WL, process.Aging{PE: progAging.PE}) * paramPenalty * noise

	res.LatencyNs, res.Loops, res.Verifies, res.Skipped = latency, loops, verifies, skipped
	res.Windows = eff
	res.BerEP1, res.MeasuredBER = vth.BerEP1(measured), measured
	res.Suspect = disturbShift != 0
	c.stats.Programs++
	c.stats.ProgramLoops += int64(loops)
	c.stats.Verifies += int64(verifies)
	c.stats.VerifiesSkipped += int64(skipped)
	return nil
}

// storeOOB copies a word line's spare-area records into its block's
// arena (the caller reuses its buffers once the program returns) and
// points st at them.
func (c *Chip) storeOOB(block int, st *wlState, oob [][]byte) {
	blk := &c.blocks[block]
	if blk.spare == nil {
		total := 0
		for _, b := range oob {
			total += len(b)
		}
		blk.spare = c.carveSpare(block, len(blk.wls)*total)
	}
	st.hasOOB = true
	st.oobOff = uint32(len(blk.spare))
	for i, b := range oob {
		blk.spare = append(blk.spare, b...) // grows only if records are not uniform
		st.oobLen[i] = uint16(len(b))
	}
}

// carveSpare returns an empty arena of capacity n for a block: its share
// of the chip's spare slab when n is the slab's stride, which the chip's
// first call fixes, else one of its own. The share is capped, so a block
// whose records outgrow it moves to an arena of its own and never writes
// into its neighbour's.
func (c *Chip) carveSpare(block, n int) []byte {
	if c.spare == nil {
		c.spare, c.spareStride = make([]byte, len(c.blocks)*n), n
	}
	if n != c.spareStride {
		return make([]byte, 0, n)
	}
	off := block * n
	return c.spare[off : off : off+n]
}

// carved reports whether a block's spare arena is its share of the
// chip's slab.
func (c *Chip) carved(block int) bool {
	s, n := c.blocks[block].spare, c.spareStride
	return n > 0 && cap(s) == n && &s[:1][0] == &c.spare[block*n]
}

// storePages copies a word line's payloads into the block's slab (the
// caller reuses its buffers once the program returns).
func (blk *blockState) storePages(wl int, pages [][]byte) {
	if blk.pages == nil {
		blk.pages = make([][]byte, len(blk.wls)*vth.PagesPerWL)
	}
	for i, p := range pages {
		blk.pages[wl*vth.PagesPerWL+i] = append([]byte(nil), p...)
	}
}

// wlPages returns a word line's slots in the payload slab, nil when the
// block has none.
func (blk *blockState) wlPages(wl int) [][]byte {
	if blk.pages == nil {
		return nil
	}
	return blk.pages[wl*vth.PagesPerWL : (wl+1)*vth.PagesPerWL]
}

// clearWLs returns every word line to the erased state and empties the
// spare arena and the payload slab, keeping their memory for the
// block's next life.
func (blk *blockState) clearWLs() {
	clear(blk.wls)
	clear(blk.pages)
	blk.spare = blk.spare[:0]
}

// EraseResult reports one block erase.
type EraseResult struct {
	LatencyNs int64
	PECycles  int // the block's cycle count after this erase
}

// EraseBlock erases a block, incrementing its wear. Erasing past the
// rated endurance still works (real chips do not hard-stop) but the
// error characteristics keep degrading.
func (c *Chip) EraseBlock(block int) (EraseResult, error) {
	if block < 0 || block >= len(c.blocks) {
		return EraseResult{}, fmt.Errorf("%w: block %d", ErrBadAddress, block)
	}
	blk := &c.blocks[block]
	if blk.bad {
		return EraseResult{}, badBlockErr(block)
	}
	// Injected erase failure: the block no longer erases within spec.
	// It spent the full erase time, keeps its (now untrustworthy)
	// contents, and is marked grown-bad so later operations reject it.
	if c.eraseFault(block) {
		blk.bad = true
		c.stats.EraseFails++
		return EraseResult{LatencyNs: vth.TEraseNs, PECycles: blk.pe},
			fmt.Errorf("%w: block %d", ErrEraseFail, block)
	}
	blk.pe++
	blk.erased = true
	blk.reads = 0     // erase heals accumulated read disturb
	blk.retMonths = 0 // new data: the retention clock restarts
	blk.clearWLs()
	c.stats.Erases++
	return EraseResult{LatencyNs: vth.TEraseNs, PECycles: blk.pe}, nil
}
