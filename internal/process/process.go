// Package process models the manufacturing-process characteristics of a
// 3D TLC NAND chip: the vertical inter-layer variability and the
// horizontal intra-layer similarity that the paper characterizes in §3,
// plus their interaction with aging (P/E cycles and data retention).
//
// A Model is instantiated per chip from a seed. It answers, for any
// (block, h-layer, word line, aging state):
//
//   - the retention bit error rate (BER),
//   - the E<->P1 health indicator BER_EP1,
//   - the ISPP loop-completion windows per program state, and
//   - the optimal read-reference-voltage offset level.
//
// Calibration targets (from the paper):
//
//   - WLs on the same h-layer are virtually equivalent: deltaH ~= 1
//     with only sub-percent RTN-scale noise (Figs 5, 13).
//   - h-layers differ strongly and nonlinearly: deltaV ~= 1.6 on a
//     fresh block, ~= 2.3 at 2K P/E + 1-year retention (Fig 6), with
//     ~18% block-to-block differences in deltaV (Fig 6(d)).
//   - Block-edge layers (alpha, omega) are unreliable; the worst layer
//     (kappa) sits in the lower third (narrow, rugged channel holes);
//     the best layer (beta) in the upper-middle.
//   - Read-retry incidence at the default reference voltages: 0% fresh,
//     ~30% at 2K P/E + 1 month, ~90% at 2K P/E + 1 year (§6.2).
package process

import (
	"fmt"
	"math"

	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

// Aging describes the wear and retention state under which a word line
// is accessed.
type Aging struct {
	PE              int     // program/erase cycles experienced by the block
	RetentionMonths float64 // time since the data was programmed
}

// Canonical aging states used throughout the paper's evaluation (§6.2).
var (
	AgingFresh     = Aging{PE: 0, RetentionMonths: 0}
	AgingMidLife   = Aging{PE: 2000, RetentionMonths: 1}
	AgingEndOfLife = Aging{PE: 2000, RetentionMonths: 12}
)

// Config parameterizes a per-chip process model.
type Config struct {
	Layers        int    // h-layers per block (paper: 48)
	WLsPerLayer   int    // word lines per h-layer (paper: 4)
	BlocksPerChip int    // blocks per chip (paper: 428)
	Seed          uint64 // chip-unique seed
}

// DefaultConfig returns the paper's chip geometry.
func DefaultConfig() Config {
	return Config{
		Layers:        48,
		WLsPerLayer:   4,
		BlocksPerChip: 428,
		Seed:          1,
	}
}

// The calibrated reliability constants of the §3 characterization.
const (
	// baseBER is the retention BER of the best h-layer of a fresh block.
	baseBER = 1e-4
	// rtnSigma is the relative magnitude of the per-WL systematic noise
	// within an h-layer (random-telegraph-noise scale; paper: < 3%
	// total, typically sub-percent).
	rtnSigma = 0.005
)

// EnduranceLimit is the rated P/E cycle lifetime (paper: 2K cycles).
const EnduranceLimit = 2000

// Model is a deterministic statistical model of one chip's process
// characteristics. It is safe for concurrent readers after construction.
type Model struct {
	cfg Config

	layerBase []float64 // per-layer base BER multiplier (fresh, untilted)
	severity  []float64 // per-layer severity in [0, 1]

	blockFactor []float64 // per-block overall BER multiplier
	blockTilt   []float64 // per-block scaling of the layer profile

	driftFactor []float64 // per (block, layer) read-drift multiplier
	wlFactor    []float64 // per (block, layer, wl) RTN-scale multiplier

	worst, best int // indices of the extreme layers of the base profile
}

// NewModel builds a chip model. It panics on nonsensical geometry, which
// always indicates a configuration bug.
func NewModel(cfg Config) *Model {
	if cfg.Layers <= 0 || cfg.WLsPerLayer <= 0 || cfg.BlocksPerChip <= 0 {
		panic(fmt.Sprintf("process: invalid geometry %+v", cfg))
	}
	m := &Model{cfg: cfg}
	m.buildLayerProfile()
	m.buildBlockFactors()
	m.buildWLFactors()
	return m
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// buildLayerProfile constructs the vertical BER profile. Layer 0 is the
// bottom of the stack (last etched, narrowest channel holes), layer
// Layers-1 the top. Three structural effects compose:
//
//   - an exponential rise toward the bottom edge (hole narrowing),
//   - a smaller rise toward the top edge (edge word lines),
//   - a bump in the lower third where etchant fluid dynamics produce
//     elliptical/rugged holes (the paper's worst layer, kappa).
func (m *Model) buildLayerProfile() {
	l := m.cfg.Layers
	m.layerBase = make([]float64, l)
	kappaPos := float64(l) * 0.3
	for i := 0; i < l; i++ {
		bottom := 0.45 * math.Exp(-float64(i)/3.0)
		top := 0.25 * math.Exp(-float64(l-1-i)/2.5)
		d := float64(i) - kappaPos
		kappa := 0.60 * math.Exp(-d*d/(2*16))
		m.layerBase[i] = 1 + bottom + top + kappa
	}
	maxB, minB := m.layerBase[0], m.layerBase[0]
	m.worst, m.best = 0, 0
	for i, b := range m.layerBase {
		if b > maxB {
			maxB, m.worst = b, i
		}
		if b < minB {
			minB, m.best = b, i
		}
	}
	// Normalize so the best layer sits at multiplier 1.0.
	m.severity = make([]float64, l)
	for i := range m.layerBase {
		m.layerBase[i] /= minB
		m.severity[i] = (m.layerBase[i] - 1) / (maxB/minB - 1)
	}
}

func (m *Model) buildBlockFactors() {
	src := rng.New(m.cfg.Seed).Derive("process/block")
	n := m.cfg.BlocksPerChip
	m.blockFactor = make([]float64, n)
	m.blockTilt = make([]float64, n)
	for b := 0; b < n; b++ {
		s := src.DeriveN("b", uint64(b))
		m.blockFactor[b] = math.Exp(0.06 * s.NormFloat64())
		tilt := 1 + 0.07*s.NormFloat64()
		m.blockTilt[b] = clamp(tilt, 0.75, 1.25)
	}
}

func (m *Model) buildWLFactors() {
	src := rng.New(m.cfg.Seed).Derive("process/wl")
	nBlocks, nLayers, nWL := m.cfg.BlocksPerChip, m.cfg.Layers, m.cfg.WLsPerLayer
	m.driftFactor = make([]float64, nBlocks*nLayers)
	m.wlFactor = make([]float64, nBlocks*nLayers*nWL)
	for b := 0; b < nBlocks; b++ {
		bs := src.DeriveN("b", uint64(b))
		for l := 0; l < nLayers; l++ {
			ls := bs.DeriveN("l", uint64(l))
			m.driftFactor[b*nLayers+l] = math.Exp(driftSigma * ls.NormFloat64())
			for w := 0; w < nWL; w++ {
				m.wlFactor[(b*nLayers+l)*nWL+w] = 1 + rtnSigma*ls.NormFloat64()
			}
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WorstLayer returns the index of the least reliable h-layer (kappa).
func (m *Model) WorstLayer() int { return m.worst }

// BestLayer returns the index of the most reliable h-layer (beta).
func (m *Model) BestLayer() int { return m.best }

// retention maps months of retention to the normalized retention stress
// R(t), which is 0 at t=0 and 1 at 12 months. The logarithmic shape
// models the fast early charge loss of charge-trap cells followed by a
// slow tail (paper §1; Chen et al. [5]).
func retention(months float64) float64 {
	if months <= 0 {
		return 0
	}
	return math.Log(1+months) / ln13
}

// ln13 is the divisor of retention: math.Log is not constant-folded, so
// the expression paid for it on every call.
var ln13 = math.Log(13)

// effSeverity is the per-block effective severity of a layer.
func (m *Model) effSeverity(block, layer int) float64 {
	return clamp(m.severity[layer]*m.blockTilt[block], 0, 1.5)
}

// layerEff is the per-block effective layer multiplier.
func (m *Model) layerEff(block, layer int) float64 {
	return 1 + (m.layerBase[layer]-1)*m.blockTilt[block]
}

// Aging growth coefficients. Calibrated so that
// deltaV(fresh) ~= 1.6 and deltaV(2K P/E, 1 year) ~= 2.3:
// the worst layer's aging factor exceeds the best layer's by
// (2+peSeverity)(3+retSeverity)/6 ~= 2.3/1.6.
const (
	peGrowthBase      = 1.00
	peGrowthSeverity  = 0.30
	retGrowthBase     = 2.00
	retGrowthSeverity = 0.75
)

// agingFactor returns the multiplicative BER growth for effective
// severity s at peCycles of wear and retention stress r = retention(months).
func agingFactor(s float64, peCycles int, r float64) float64 {
	pe := float64(peCycles) / EnduranceLimit
	if pe < 0 {
		pe = 0
	}
	peF := 1 + (peGrowthBase+peGrowthSeverity*s)*pe
	retF := 1 + (retGrowthBase+retGrowthSeverity*s)*r
	return peF * retF
}

// BER returns the retention bit error rate of word line wl on h-layer
// layer of block block under aging a, measured at the optimal read
// reference voltages. Word lines on the same h-layer differ only by the
// RTN-scale wlFactor — the horizontal intra-layer similarity.
func (m *Model) BER(block, layer, wl int, a Aging) float64 {
	return m.ber(block, layer, wl, a.PE, retention(a.RetentionMonths))
}

func (m *Model) ber(block, layer, wl, peCycles int, r float64) float64 {
	s := m.effSeverity(block, layer)
	ber := baseBER *
		m.layerEff(block, layer) *
		m.blockFactor[block] *
		agingFactor(s, peCycles, r) *
		m.wlFactor[(block*m.cfg.Layers+layer)*m.cfg.WLsPerLayer+wl]
	return ber
}

// ReadTerms holds the terms of BER and OptimalOffset that depend on an
// aging state and on nothing else — one logarithm and two powers. A
// page read needs both functions of the same block's aging, and a
// block's aging changes only when it is erased or the device is aged,
// so the chip keeps one ReadTerms per block and reads stop recomputing
// them. The terms are the operands of the expressions in BER and
// OptimalOffset, which keep their association: the *At variants return
// the same bits. The zero value holds the terms of the zero Aging (all
// three are 0 there).
type ReadTerms struct {
	aging         Aging
	r             float64 // retention(aging.RetentionMonths)
	pePow, retPow float64 // the drift terms of OptimalOffset
}

// Update makes t hold the terms of a, recomputing them unless it
// already does (exact equality of wear and retention).
func (t *ReadTerms) Update(a Aging) {
	if t.aging == a {
		return
	}
	r := retention(a.RetentionMonths)
	*t = ReadTerms{
		aging:  a,
		r:      r,
		pePow:  math.Pow(float64(a.PE)/EnduranceLimit, driftPEExp),
		retPow: math.Pow(r, driftRetExp),
	}
}

// BERAt is BER under the aging state t was last updated with.
func (m *Model) BERAt(block, layer, wl int, t *ReadTerms) float64 {
	return m.ber(block, layer, wl, t.aging.PE, t.r)
}

// BerEP1 returns the E<->P1 health-indicator error rate of the leading
// word line of an h-layer (the quantity OPM monitors in §4.1.2).
func (m *Model) BerEP1(block, layer int, a Aging) float64 {
	return vth.BerEP1(m.BER(block, layer, 0, a))
}

// DeltaV returns the inter-layer variability metric of a block: the
// ratio of the maximum to the minimum leading-WL BER across h-layers
// (paper §3.1).
func (m *Model) DeltaV(block int, a Aging) float64 {
	maxB, minB := 0.0, math.Inf(1)
	for l := 0; l < m.cfg.Layers; l++ {
		b := m.BER(block, l, 0, a)
		if b > maxB {
			maxB = b
		}
		if b < minB {
			minB = b
		}
	}
	return maxB / minB
}

// DeltaH returns the intra-layer similarity metric of one h-layer: the
// ratio of the maximum to the minimum BER across its word lines
// (paper §3.1). Values near 1 indicate strong process similarity.
func (m *Model) DeltaH(block, layer int, a Aging) float64 {
	maxB, minB := 0.0, math.Inf(1)
	for w := 0; w < m.cfg.WLsPerLayer; w++ {
		b := m.BER(block, layer, w, a)
		if b > maxB {
			maxB = b
		}
		if b < minB {
			minB = b
		}
	}
	return maxB / minB
}

// LoopWindow is the cumulative ISPP loop interval in which the cells of
// one program state complete: the fastest cells finish on loop MinLoop,
// the slowest on loop MaxLoop (1-based).
type LoopWindow struct {
	MinLoop int
	MaxLoop int
}

// LoopWindows returns the per-state completion windows for programming a
// word line of the given h-layer under aging a. All word lines of an
// h-layer share the same windows — this is the process similarity the
// VFY-skipping optimization (§4.1.1) relies on.
//
// Nominal windows put state Pi's fastest cells at loop i+1 and slowest
// at loop 2i+1 (so a default program runs DefaultMaxLoop = 15 loops and
// 63 verifies: ~700 us with the vth timing constants). High-severity
// layers shift one loop slower; heavy wear shifts one loop faster
// (charge-trap buildup makes worn cells program faster).
func (m *Model) LoopWindows(block, layer int, a Aging) [vth.ProgramStates]LoopWindow {
	s := m.effSeverity(block, layer)
	shift := 0
	if s > 0.7 {
		shift++
	}
	if float64(a.PE)/EnduranceLimit > 0.75 {
		shift--
	}
	var ws [vth.ProgramStates]LoopWindow
	for i := 1; i <= vth.ProgramStates; i++ {
		lo := i + 1 + shift
		hi := 2*i + 1 + shift
		if lo < 1 {
			lo = 1
		}
		if hi > vth.DefaultMaxLoop {
			hi = vth.DefaultMaxLoop
		}
		if lo > hi {
			lo = hi
		}
		ws[i-1] = LoopWindow{MinLoop: lo, MaxLoop: hi}
	}
	return ws
}

// Read-drift calibration: the optimal read-reference offset level grows
// with wear, retention, and layer severity. Constants are calibrated so
// the default-voltage read failure rates reproduce the paper's retry
// incidence anchors (0% / ~30% / ~90%).
const (
	driftScale  = 6.5
	driftPEExp  = 0.8
	driftRetExp = 0.4
	driftSigma  = 0.4 // lognormal sigma of the per-(block,layer) factor
)

// OptimalOffset returns the read-reference offset level (0..7) that
// minimizes the raw BER for the given h-layer under aging a. Reading at
// a different level multiplies BER by vth.OffsetPenalty(distance).
func (m *Model) OptimalOffset(block, layer int, a Aging) int {
	var t ReadTerms
	t.Update(a)
	return m.OptimalOffsetAt(block, layer, &t)
}

// OptimalOffsetAt is OptimalOffset under the aging state t was last
// updated with.
func (m *Model) OptimalOffsetAt(block, layer int, t *ReadTerms) int {
	if t.aging.PE <= 0 && t.r <= 0 {
		return 0
	}
	s := m.effSeverity(block, layer)
	drift := driftScale *
		t.pePow *
		t.retPow *
		(0.55 + 0.45*s) *
		m.driftFactor[block*m.cfg.Layers+layer]
	o := int(math.Round(drift))
	if o < 0 {
		o = 0
	}
	if o > vth.MaxReadOffsetLevel {
		o = vth.MaxReadOffsetLevel
	}
	return o
}
