// Package vth contains the threshold-voltage-level reliability math shared
// by the NAND model and the FTLs: ISPP program-window parameters, the
// BER penalty of reading away from the optimal read reference voltages,
// the BER penalty of tightening the program window, the E↔P1 health
// indicator (BER_EP1), and the offline-characterized conversion tables
// that map a spare margin S_M to V_Start/V_Final adjustments
// (paper §4.1.2, Figs 10 and 11).
//
// Everything here is a pure function of its arguments; the statistical
// per-chip/per-layer instantiation lives in package process.
package vth

import "math"

// TLC geometry: 8 Vth states (E, P1..P7), 3 pages per word line.
const (
	NumStates     = 8 // E plus P1..P7
	ProgramStates = 7 // P1..P7
	PagesPerWL    = 3
)

// ISPP program-window calibration (matching the paper's defaults: a
// ~700 us tPROG with MaxLoop = (V_Final - V_Start) / dV_ISPP, and the
// Fig 11(b) scale where a 320 mV adjustment buys ~19.7% of tPROG).
const (
	// DeltaVISPPmV is the ISPP step size in millivolts.
	DeltaVISPPmV = 100
	// DefaultWindowMV is the default V_Final - V_Start program window.
	DefaultWindowMV = 1500
	// DefaultMaxLoop is DefaultWindowMV / DeltaVISPPmV.
	DefaultMaxLoop = DefaultWindowMV / DeltaVISPPmV
	// MaxAdjustMarginMV caps the total V_Start + V_Final adjustment.
	MaxAdjustMarginMV = 400
	// MarginQuantumMV is the granularity of the offline conversion table.
	MarginQuantumMV = 20
)

// NAND timing calibration (ns). Leader (default-parameter) program of a
// TLC word line lands at ~700 us: MaxLoop*tPGM + totalVFYs*tVFY with the
// nominal loop windows in package process (15 loops, 63 verifies).
const (
	TPGMNs        = 30_000    // one ISPP program pulse
	TVFYNs        = 4_000     // one verify step
	TReadNs       = 78_000    // one page sense (per attempt, incl. retries)
	TEraseNs      = 3_500_000 // block erase
	TParamSetNs   = 900       // Set/Get-Features parameter load (<1 us, §4.1.4)
	TXferPageNs   = 20_000    // 16 KB page transfer over the bus (~800 MB/s)
	TReadARNs     = 54_600    // early-terminated sense under AR (~0.7x tREAD)
	TWriteSetupNs = 2_000     // command/address cycles before an operation
)

// OffsetPenaltyBase is the multiplicative BER growth per read-reference
// offset step away from the optimal setting. The value is chosen so the
// ECC margin at the paper's aging anchors reproduces its retry rates
// (0% fresh, 30% at 2K P/E + 1 month, 90% at 2K P/E + 1 year).
const OffsetPenaltyBase = 2.6

// MaxReadOffsetLevel is the number of adjustable read-reference levels in
// each direction (the paper's ORT stores 7 offsets in 2 bytes/h-layer,
// i.e. up to 4 adjustable levels between states).
const MaxReadOffsetLevel = 7

// OffsetPenalty returns the multiplicative BER penalty of reading with
// reference voltages d steps away from optimal. d may be negative.
func OffsetPenalty(d int) float64 {
	if d < 0 {
		d = -d
	}
	if d < len(offsetPenalties) {
		return offsetPenalties[d]
	}
	return math.Pow(OffsetPenaltyBase, float64(d))
}

// offsetPenalties tabulates OffsetPenalty over the distances two offset
// levels can be apart: every attempt of every retry ladder asks for one.
var offsetPenalties = func() (t [MaxReadOffsetLevel + 1]float64) {
	t[0] = 1
	for d := 1; d < len(t); d++ {
		t[d] = math.Pow(OffsetPenaltyBase, float64(d))
	}
	return t
}()

// MarginBERPenalty returns the multiplicative increase in programmed BER
// caused by tightening the program window by marginMV millivolts
// (raising V_Start and/or lowering V_Final). This is the Fig 10 curve:
// flat near zero, superlinear as the margin grows.
func MarginBERPenalty(marginMV int) float64 {
	if marginMV <= 0 {
		return 1
	}
	x := float64(marginMV) / 100
	return 1 + 0.045*x*x*x
}

// SkipBERPenalty returns the multiplicative increase in programmed BER
// from skipping skipped verify steps for a program state whose safe skip
// budget is safe (Fig 8(a)): skipping within the budget costs almost
// nothing; each step beyond over-programs fast cells progressively.
func SkipBERPenalty(skipped, safe int) float64 {
	if skipped <= safe {
		// Within-budget skipping only trims the fast-cell guard band.
		return 1 + 0.01*float64(skipped)
	}
	over := float64(skipped - safe)
	return (1 + 0.01*float64(safe)) * math.Pow(1.6, over)
}

// BEREP1Ratio is the ratio of the E<->P1 error rate to the full
// retention BER of a word line. The E/P1 boundary is the widest and
// most retention-sensitive, so it tracks overall health (paper §4.1.2,
// footnote 1; refs [20, 35]).
const BEREP1Ratio = 0.42

// BerEP1 derives the E<->P1 bit error rate from a word line's overall
// retention BER.
func BerEP1(retentionBER float64) float64 { return retentionBER * BEREP1Ratio }

// Normalization reference for S_M: BER_EP1 of the best h-layer of a
// fresh block. S_M is expressed in these normalized units, as in
// Fig 11(a) where S_M = BER_EP1^Max - BER_EP1 ~= 1.7.
const (
	// BEREP1MaxNorm is the maximum allowed normalized BER_EP1
	// (the reliability limit used to compute S_M).
	BEREP1MaxNorm = 3.0
)

// SpareMargin computes S_M from a measured BER_EP1 and the fresh-best
// reference value. The result is clamped at zero: a worn WL whose
// BER_EP1 meets or exceeds the allowed maximum has no spare margin.
func SpareMargin(berEP1, refBerEP1 float64) float64 {
	if refBerEP1 <= 0 {
		return 0
	}
	sm := BEREP1MaxNorm - berEP1/refBerEP1
	if sm < 0 {
		return 0
	}
	return sm
}

// SMToMarginMV is the offline-characterized conversion table mapping a
// spare margin S_M to the total V_Start/V_Final adjustment in mV
// (Fig 11(b): S_M = 1.7 -> 320 mV -> ~19.7% tPROG reduction). The table
// is linear in S_M, quantized to MarginQuantumMV, capped at
// MaxAdjustMarginMV, and deliberately leaves the last ~0.1 of S_M
// unconverted as a guard band.
func SMToMarginMV(sm float64) int {
	if sm <= 0.1 {
		return 0
	}
	mv := (sm - 0.1) * 200
	q := int(mv/MarginQuantumMV) * MarginQuantumMV
	if q > MaxAdjustMarginMV {
		q = MaxAdjustMarginMV
	}
	return q
}

// SplitMargin divides a total adjustment margin between V_Start (raised)
// and V_Final (lowered), per the paper's second predefined table. The
// 60/40 split favors V_Start: raising it removes leading loops in which
// no state completes, which is strictly cheaper than trimming the tail.
func SplitMargin(totalMV int) (startMV, finalMV int) {
	startMV = totalMV * 6 / 10
	startMV = startMV / MarginQuantumMV * MarginQuantumMV
	finalMV = totalMV - startMV
	return startMV, finalMV
}

// LoopsSaved converts a window adjustment into whole ISPP loops removed.
func LoopsSaved(marginMV int) int { return marginMV / DeltaVISPPmV }

// VertFTLFinalMV is the conservative, offline V_Final-only reduction the
// vertFTL baseline applies (Hung et al. [13]: ~130 mV over the entire
// lifetime, ~8% program-latency improvement).
const VertFTLFinalMV = 130

// ISPPStepPenalty is the multiplicative BER cost of programming with an
// enlarged ISPP step (Pan et al. [31]): the final Vth distributions
// widen roughly in proportion to the step, so the stored error rate
// grows quickly past the default DeltaVISPPmV.
func ISPPStepPenalty(stepMV int) float64 {
	if stepMV <= DeltaVISPPmV {
		return 1
	}
	r := float64(stepMV)/DeltaVISPPmV - 1
	return math.Exp(2.2 * r)
}
