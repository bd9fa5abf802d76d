package vth

import "math"

// Cell-level threshold-voltage distribution model. The rest of the
// simulator works with abstract quantities (BER, offset penalties, the
// BER_EP1 ratio); this file derives those quantities from first
// principles — eight Gaussian state distributions, retention-induced
// shift and widening, and read-reference placement — so the abstract
// constants are justified rather than asserted. Tests in
// distribution_test.go check the derivations against the constants.

// StateDist is one Vth state's distribution (millivolts).
type StateDist struct {
	MeanMV  float64
	SigmaMV float64
}

// Distribution is the full 8-state TLC Vth picture of one word line.
type Distribution struct {
	States [NumStates]StateDist
}

// Nominal geometry of a freshly programmed TLC word line: the erased
// state is wide and low; programmed states sit at even spacing with
// tight ISPP-controlled sigmas.
const (
	eMeanMV     = -2500
	eSigmaMV    = 450
	p1MeanMV    = 300
	stateGapMV  = 850
	progSigmaMV = 90
)

// NominalDistribution returns the fresh programmed distribution.
func NominalDistribution() Distribution {
	var d Distribution
	d.States[0] = StateDist{MeanMV: eMeanMV, SigmaMV: eSigmaMV}
	for s := 1; s < NumStates; s++ {
		d.States[s] = StateDist{
			MeanMV:  p1MeanMV + float64(s-1)*stateGapMV,
			SigmaMV: progSigmaMV,
		}
	}
	return d
}

// Age applies retention and wear stress (both normalized to 1 at the
// end-of-life anchor): charge loss shifts programmed states downward —
// higher states, holding more charge, shift more — and both stresses
// widen the distributions.
func (d Distribution) Age(retStress, peStress float64) Distribution {
	out := d
	for s := 1; s < NumStates; s++ {
		frac := float64(s) / float64(NumStates-1)
		shift := retStress * (120 + 280*frac) // mV, worst for P7
		widen := 1 + 0.25*retStress + 0.15*peStress
		out.States[s].MeanMV -= shift
		out.States[s].SigmaMV *= widen
	}
	// The erased state creeps up with wear (trapped charge) and widens
	// further as charge detraps over retention.
	out.States[0].MeanMV += 180*peStress + 100*retStress
	out.States[0].SigmaMV *= 1 + 0.35*retStress + 0.25*peStress
	return out
}

// qFunc is the Gaussian upper-tail probability Q(x).
func qFunc(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }

// Refs is a set of seven read reference voltages; Refs[i] separates
// state i from state i+1.
type Refs [ProgramStates]float64

// MidpointRefs places each reference halfway between the fresh
// adjacent-state means — the chip's default read voltages.
func (d Distribution) MidpointRefs() Refs {
	var r Refs
	fresh := NominalDistribution()
	for i := 0; i < ProgramStates; i++ {
		r[i] = (fresh.States[i].MeanMV + fresh.States[i+1].MeanMV) / 2
	}
	return r
}

// boundaryErr is the probability mass on the wrong side of a reference
// for the two adjacent states (equal state occupancy assumed).
func boundaryErr(lo, hi StateDist, ref float64) float64 {
	upper := qFunc((ref - lo.MeanMV) / lo.SigmaMV) // lo read as hi
	lower := qFunc((hi.MeanMV - ref) / hi.SigmaMV) // hi read as lo
	return (upper + lower) / 2
}

// RawBER is the bit error rate of reading the word line with the given
// references: each boundary crossing flips one of the three gray-coded
// bits, states are equally occupied, and boundary errors are
// independent to first order.
func (d Distribution) RawBER(r Refs) float64 {
	sum := 0.0
	for i := 0; i < ProgramStates; i++ {
		sum += boundaryErr(d.States[i], d.States[i+1], r[i])
	}
	// Per-state boundary mass / states, spread over 3 bits per cell.
	return sum / float64(NumStates) / float64(PagesPerWL) * 2
}

// RefStepMV is the read-retry offset step implied by the distribution
// model: each retry level moves the references this much toward the
// drifted optimum. Calibrated so one level of mis-positioning
// multiplies BER by roughly OffsetPenaltyBase (see tests).
const RefStepMV = 45
