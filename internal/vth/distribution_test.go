package vth

import (
	"math"
	"testing"
)

// optimalRefs places each reference of d at the minimum-error crossing
// of the current (aged) adjacent distributions, found numerically: the
// operating point a retry-equipped controller converges to.
func optimalRefs(d Distribution) Refs {
	var r Refs
	for i := 0; i < ProgramStates; i++ {
		lo, hi := d.States[i], d.States[i+1]
		// Ternary search for the reference minimizing the two tails.
		a, b := lo.MeanMV, hi.MeanMV
		for iter := 0; iter < 60; iter++ {
			m1 := a + (b-a)/3
			m2 := b - (b-a)/3
			if boundaryErr(lo, hi, m1) < boundaryErr(lo, hi, m2) {
				b = m2
			} else {
				a = m1
			}
		}
		r[i] = (a + b) / 2
	}
	return r
}

// shifted returns r moved by offsetMV (negative follows downward
// retention drift).
func shifted(r Refs, offsetMV float64) Refs {
	for i := range r {
		r[i] += offsetMV
	}
	return r
}

// boundaryBER is the error contribution of one boundary of d read at r
// (0 = E<->P1), in RawBER's units.
func boundaryBER(d Distribution, r Refs, boundary int) float64 {
	return boundaryErr(d.States[boundary], d.States[boundary+1], r[boundary]) /
		float64(NumStates) / float64(PagesPerWL) * 2
}

func TestNominalDistributionShape(t *testing.T) {
	d := NominalDistribution()
	// States strictly ordered in Vth.
	for s := 1; s < NumStates; s++ {
		if d.States[s].MeanMV <= d.States[s-1].MeanMV {
			t.Fatalf("state %d mean %.0f not above state %d", s, d.States[s].MeanMV, s-1)
		}
		if d.States[s].SigmaMV <= 0 {
			t.Fatalf("state %d sigma %.0f", s, d.States[s].SigmaMV)
		}
	}
	// Fresh word line at optimal references is essentially error-free.
	if ber := d.RawBER(optimalRefs(d)); ber > 1e-6 {
		t.Errorf("fresh BER at optimal refs = %v", ber)
	}
}

func TestAgingDegradesAndShiftsDown(t *testing.T) {
	fresh := NominalDistribution()
	aged := fresh.Age(1, 1)
	for s := 1; s < NumStates; s++ {
		if aged.States[s].MeanMV >= fresh.States[s].MeanMV {
			t.Fatalf("state %d did not shift down", s)
		}
		if aged.States[s].SigmaMV <= fresh.States[s].SigmaMV {
			t.Fatalf("state %d did not widen", s)
		}
	}
	// Higher states shift more (they hold more charge).
	shift2 := fresh.States[2].MeanMV - aged.States[2].MeanMV
	shift7 := fresh.States[7].MeanMV - aged.States[7].MeanMV
	if shift7 <= shift2 {
		t.Errorf("P7 shift %.0f not above P2 shift %.0f", shift7, shift2)
	}
	// BER at the DEFAULT references grows monotonically with stress.
	refs := fresh.MidpointRefs()
	prev := -1.0
	for _, stress := range []float64{0, 0.25, 0.5, 0.75, 1} {
		ber := fresh.Age(stress, stress).RawBER(refs)
		if ber < prev {
			t.Fatalf("BER not monotone at stress %v", stress)
		}
		prev = ber
	}
}

// Re-centering the references on the drifted distributions must recover
// most of the error — the entire premise of read retry.
func TestOptimalRefsRecoverDrift(t *testing.T) {
	aged := NominalDistribution().Age(1, 0.5)
	atDefault := aged.RawBER(aged.MidpointRefs())
	atOptimal := aged.RawBER(optimalRefs(aged))
	if atOptimal >= atDefault/3 {
		t.Errorf("optimal refs only improved BER %.2e -> %.2e", atDefault, atOptimal)
	}
}

// One retry level of reference mis-positioning multiplies BER by
// roughly OffsetPenaltyBase — the constant the abstract model asserts.
func TestOffsetPenaltyBaseDerivation(t *testing.T) {
	aged := NominalDistribution().Age(0.7, 0.5)
	opt := optimalRefs(aged)
	prev := aged.RawBER(opt)
	var ratios []float64
	for level := 1; level <= 3; level++ {
		ber := aged.RawBER(shifted(opt, float64(level)*RefStepMV))
		ratios = append(ratios, ber/prev)
		prev = ber
	}
	// Per-level growth should bracket the abstract OffsetPenaltyBase.
	for i, r := range ratios {
		if r < 1.6 || r > 4.5 {
			t.Errorf("level %d growth factor %.2f outside [1.6, 4.5] (abstract base %.1f)",
				i+1, r, OffsetPenaltyBase)
		}
	}
	geo := math.Pow(ratios[0]*ratios[1]*ratios[2], 1.0/3)
	if geo < 1.9 || geo > 3.6 {
		t.Errorf("geometric mean growth %.2f, abstract base is %.1f", geo, OffsetPenaltyBase)
	}
}

// The E<->P1 boundary dominates retention errors (wide erased state,
// upward wear creep meets downward P1 drift), justifying BER_EP1 as the
// health indicator with ratio on the order of BEREP1Ratio.
func TestBerEP1DominanceDerivation(t *testing.T) {
	// Measured at the re-centered (optimal) references — the operating
	// point a retry-equipped controller actually reads at, and the one
	// the post-program health measurement uses.
	aged := NominalDistribution().Age(1, 1)
	refs := optimalRefs(aged)
	total := aged.RawBER(refs)
	ep1 := boundaryBER(aged, refs, 0)
	frac := ep1 / total
	if frac < 0.15 || frac > 0.75 {
		t.Errorf("E<->P1 share of total BER = %.2f, abstract BEREP1Ratio is %.2f", frac, BEREP1Ratio)
	}
	// And it must be the single largest boundary contribution.
	for b := 1; b < ProgramStates; b++ {
		if boundaryBER(aged, refs, b) > ep1 {
			t.Errorf("boundary %d exceeds E<->P1 (%.2e > %.2e)", b, boundaryBER(aged, refs, b), ep1)
		}
	}
}

// Tightening the program window (raising P1, lowering P7 targets)
// compresses the state gaps and raises BER superlinearly — the Fig 10
// MarginBERPenalty shape.
func TestMarginPenaltyDerivation(t *testing.T) {
	squeeze := func(marginMV float64) float64 {
		d := NominalDistribution()
		// A tighter window re-spaces the programmed states over
		// (window - margin).
		total := float64(NumStates-2) * stateGapMV
		scale := (total - marginMV) / total
		for s := 2; s < NumStates; s++ {
			d.States[s].MeanMV = p1MeanMV + (d.States[s].MeanMV-p1MeanMV)*scale
		}
		aged := d.Age(0.8, 0.8)
		return aged.RawBER(optimalRefs(aged))
	}
	base := squeeze(0)
	prev := base
	var increments []float64
	for _, mv := range []float64{100, 200, 300, 400} {
		b := squeeze(mv)
		if b < prev {
			t.Fatalf("BER not monotone in margin at %v mV", mv)
		}
		increments = append(increments, b-prev)
		prev = b
	}
	// Superlinear: later 100 mV cost more than earlier ones.
	if increments[3] <= increments[0] {
		t.Errorf("margin penalty not superlinear: increments %v", increments)
	}
}
