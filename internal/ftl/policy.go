package ftl

import (
	"cubeftl/internal/nand"
	"cubeftl/internal/vth"
)

// ProgramVerdict is a policy's post-program decision (§4.1.4).
type ProgramVerdict int

const (
	// VerdictOK accepts the program.
	VerdictOK ProgramVerdict = iota
	// VerdictReprogram rejects it: the controller must invalidate the
	// word line and rewrite the same data elsewhere with fresh
	// monitoring (the PS-aware safety check's recovery path).
	VerdictReprogram
)

// Policy is the strategy interface that distinguishes FTL flavors. The
// controller owns the datapath (mapping, buffering, GC, timing); the
// policy owns word-line allocation, per-operation NAND parameters, and
// whatever monitoring state it needs.
//
// Policies are single-goroutine, driven by the simulation loop.
type Policy interface {
	// Name identifies the flavor ("pageFTL", "vertFTL", "cubeFTL", ...).
	Name() string

	// ActiveBlocksPerChip is how many write points the controller keeps
	// open per chip for this policy.
	ActiveBlocksPerChip() int

	// SelectWL picks the next word line among a chip's active blocks
	// for the given write-buffer utilization. ok=false means every
	// active block is full (the controller will rotate in a fresh one
	// and retry).
	SelectWL(chip int, actives []*BlockCursor, util float64) (activeIdx, layer, wl int, ok bool)

	// ProgramParams returns the NAND parameter overrides for the chosen
	// word line.
	ProgramParams(chip, block, layer, wl int) nand.ProgramParams

	// ObserveProgram feeds the program result back (OPM monitoring and
	// the safety check), along with the parameters the operation
	// actually ran with. The returned verdict may demand a reprogram.
	// res is the device's own record, good for the call only.
	ObserveProgram(chip, block, layer, wl int, params nand.ProgramParams, res *nand.ProgramResult) ProgramVerdict

	// ReadStartOffset returns the read-reference offset level to try
	// first when reading the given h-layer (the ORT lookup).
	ReadStartOffset(chip, block, layer int) int

	// ObserveRead feeds the read outcome back (ORT update).
	ObserveRead(chip, block, layer int, res nand.ReadResult, err error)

	// BlockRetired tells the policy an active block filled up and left
	// the write point, and its last program has completed (its monitoring
	// state can be dropped), and BlockErased tells it a block was erased
	// (any cached read offsets for it are stale).
	BlockRetired(chip, block int)
	BlockErased(chip, block int)
}

// basePolicy provides the no-op monitoring shared by the PS-unaware
// baselines.
type basePolicy struct{}

func (basePolicy) ActiveBlocksPerChip() int { return 1 }

// SelectWL fills the write points in the conventional horizontal-first
// order.
func (basePolicy) SelectWL(_ int, actives []*BlockCursor, _ float64) (int, int, int, bool) {
	for i, c := range actives {
		if l, w, ok := c.NextInOrder(OrderHorizontalFirst); ok {
			return i, l, w, true
		}
	}
	return 0, 0, 0, false
}

func (basePolicy) ObserveProgram(_, _, _, _ int, _ nand.ProgramParams, _ *nand.ProgramResult) ProgramVerdict {
	return VerdictOK
}
func (basePolicy) ReadStartOffset(int, int, int) int                 { return 0 }
func (basePolicy) ObserveRead(int, int, int, nand.ReadResult, error) {}
func (basePolicy) BlockRetired(int, int)                             {}
func (basePolicy) BlockErased(int, int)                              {}

// PagePolicy is pageFTL: a plain page-mapping FTL with no 3D-NAND-
// specific optimization. Default program parameters, horizontal-first
// order, default read voltages — the paper's PS-unaware baseline.
type PagePolicy struct {
	basePolicy
}

// NewPagePolicy returns the pageFTL baseline policy.
func NewPagePolicy() *PagePolicy { return &PagePolicy{} }

// Name implements Policy.
func (*PagePolicy) Name() string { return "pageFTL" }

// ProgramParams implements Policy: always the chip defaults.
func (*PagePolicy) ProgramParams(int, int, int, int) nand.ProgramParams {
	return nand.ProgramParams{}
}

// VertPolicy is vertFTL: the state-of-the-art PS-unaware comparison
// (Hung et al. [13]). It applies a static, offline-characterized
// V_Final reduction — conservative enough to be safe on the worst
// h-layer under the worst operating condition, hence small (~130 mV,
// ~8% tPROG) — and is otherwise identical to pageFTL.
type VertPolicy struct {
	basePolicy
}

// NewVertPolicy returns the vertFTL baseline policy.
func NewVertPolicy() *VertPolicy { return &VertPolicy{} }

// Name implements Policy.
func (*VertPolicy) Name() string { return "vertFTL" }

// ProgramParams implements Policy: the static worst-case-safe V_Final trim.
func (*VertPolicy) ProgramParams(int, int, int, int) nand.ProgramParams {
	return nand.ProgramParams{FinalMarginMV: vth.VertFTLFinalMV}
}

var (
	_ Policy = (*PagePolicy)(nil)
	_ Policy = (*VertPolicy)(nil)
	_ Policy = (*IspPolicy)(nil)
)

// IspPolicy is ispFTL, modeled on Pan et al. [31] (§7 related work):
// it accelerates programs by enlarging the ISPP step on young blocks —
// wear-out dynamics leave fresh cells plenty of Vth margin — and
// decays the step back to the default as the block ages. It is
// PS-unaware: no per-layer monitoring, no read-offset reuse, and the
// wider programmed distributions cost read margin later in life (the
// paper's critique: "requires an extra safety mechanism ... the
// efficiency of this technique is quite limited").
type IspPolicy struct {
	basePolicy
	pe func(chip, block int) int // wear lookup, injected by the runner
}

// NewIspPolicy builds ispFTL; peLookup reports a block's P/E cycles
// (the wear signal the step schedule keys on).
func NewIspPolicy(peLookup func(chip, block int) int) *IspPolicy {
	return &IspPolicy{pe: peLookup}
}

// Name implements Policy.
func (*IspPolicy) Name() string { return "ispFTL" }

// ISPPStepForPE is ispFTL's wear-keyed step schedule: +40% step on a
// fresh block, linearly decaying to the default at rated endurance,
// quantized to 20 mV. The +40% cap is the largest step whose widened
// distributions still satisfy the worst-case end-of-retention ECC
// budget — the "extra safety mechanism" the paper notes such schemes
// must carry, and the reason their efficiency is bounded.
func ISPPStepForPE(pe int) int {
	frac := 1 - float64(pe)/2000
	if frac < 0 {
		frac = 0
	}
	step := vth.DeltaVISPPmV + int(40*frac)
	return step / 20 * 20
}

// ProgramParams implements Policy: the wear-scheduled ISPP step.
func (p *IspPolicy) ProgramParams(chip, block, _, _ int) nand.ProgramParams {
	pe := 0
	if p.pe != nil {
		pe = p.pe(chip, block)
	}
	return nand.ProgramParams{ISPPStepMV: ISPPStepForPE(pe)}
}
