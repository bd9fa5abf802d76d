package vth

import (
	"math"
	"testing"
)

func TestOffsetPenalty(t *testing.T) {
	if OffsetPenalty(0) != 1 {
		t.Error("OffsetPenalty(0) != 1")
	}
	if OffsetPenalty(1) != OffsetPenaltyBase {
		t.Error("OffsetPenalty(1) != base")
	}
	if OffsetPenalty(-2) != OffsetPenalty(2) {
		t.Error("OffsetPenalty not symmetric")
	}
	prev := 0.0
	for d := 0; d <= MaxReadOffsetLevel; d++ {
		p := OffsetPenalty(d)
		if p <= prev {
			t.Fatalf("OffsetPenalty not strictly increasing at %d", d)
		}
		prev = p
	}
}

func TestMarginBERPenalty(t *testing.T) {
	if MarginBERPenalty(0) != 1 || MarginBERPenalty(-10) != 1 {
		t.Error("zero margin must have no penalty")
	}
	if p := MarginBERPenalty(320); p < 1.5 || p > 2.5 {
		t.Errorf("penalty at 320 mV = %v, want roughly 2x", p)
	}
	prev := 0.0
	for mv := 0; mv <= MaxAdjustMarginMV; mv += 20 {
		p := MarginBERPenalty(mv)
		if p < prev {
			t.Fatalf("penalty not monotone at %d mV", mv)
		}
		prev = p
	}
}

func TestSkipBERPenalty(t *testing.T) {
	if SkipBERPenalty(0, 3) != 1 {
		t.Error("no skips must have no penalty")
	}
	within := SkipBERPenalty(3, 3)
	if within > 1.05 {
		t.Errorf("within-budget skip penalty = %v, want near 1", within)
	}
	over := SkipBERPenalty(5, 3)
	if over < 2*within {
		t.Errorf("over-budget skipping too cheap: %v vs %v", over, within)
	}
	// Monotone in skipped for fixed budget.
	prev := 0.0
	for k := 0; k <= 10; k++ {
		p := SkipBERPenalty(k, 4)
		if p < prev {
			t.Fatalf("skip penalty not monotone at %d", k)
		}
		prev = p
	}
}

func TestSpareMargin(t *testing.T) {
	ref := 4.2e-5
	if sm := SpareMargin(ref, ref); math.Abs(sm-(BEREP1MaxNorm-1)) > 1e-12 {
		t.Errorf("S_M at reference = %v, want %v", sm, BEREP1MaxNorm-1)
	}
	if sm := SpareMargin(ref*BEREP1MaxNorm, ref); sm != 0 {
		t.Errorf("S_M at max allowed = %v, want 0", sm)
	}
	if sm := SpareMargin(ref*10, ref); sm != 0 {
		t.Errorf("S_M beyond max = %v, want clamped to 0", sm)
	}
	if sm := SpareMargin(ref, 0); sm != 0 {
		t.Errorf("S_M with zero reference = %v, want 0", sm)
	}
}

// Fig 11(b)'s anchor: S_M = 1.7 converts to a 320 mV total margin, which
// saves 3 of 15 loops (~20% of tPROG).
func TestSMToMarginAnchor(t *testing.T) {
	if mv := SMToMarginMV(1.7); mv != 320 {
		t.Errorf("SMToMarginMV(1.7) = %d, want 320", mv)
	}
	if LoopsSaved(320) != 3 {
		t.Errorf("LoopsSaved(320) = %d, want 3", LoopsSaved(320))
	}
}

func TestSMToMarginProperties(t *testing.T) {
	if SMToMarginMV(0) != 0 || SMToMarginMV(-1) != 0 {
		t.Error("non-positive S_M must convert to 0")
	}
	if SMToMarginMV(0.05) != 0 {
		t.Error("S_M inside the guard band must convert to 0")
	}
	if SMToMarginMV(100) != MaxAdjustMarginMV {
		t.Error("margin not capped")
	}
	prev := -1
	for sm := 0.0; sm < 3; sm += 0.01 {
		mv := SMToMarginMV(sm)
		if mv < prev {
			t.Fatalf("conversion not monotone at S_M=%v", sm)
		}
		if mv%MarginQuantumMV != 0 {
			t.Fatalf("margin %d not quantized", mv)
		}
		prev = mv
	}
}

func TestSplitMargin(t *testing.T) {
	for mv := 0; mv <= MaxAdjustMarginMV; mv += MarginQuantumMV {
		s, f := SplitMargin(mv)
		if s+f != mv {
			t.Fatalf("split of %d does not sum: %d + %d", mv, s, f)
		}
		if s < 0 || f < 0 {
			t.Fatalf("negative split of %d: %d/%d", mv, s, f)
		}
		if s%MarginQuantumMV != 0 {
			t.Fatalf("V_Start share %d not quantized", s)
		}
	}
	s, f := SplitMargin(320)
	if s != 180 || f != 140 {
		t.Errorf("SplitMargin(320) = %d/%d, want 180/140", s, f)
	}
}

// The default-parameter leader program must land at the paper's ~700 us:
// 15 loops x tPGM + 63 verifies x tVFY.
func TestDefaultTimingBudget(t *testing.T) {
	tprog := int64(DefaultMaxLoop)*TPGMNs + 63*TVFYNs
	if tprog < 650_000 || tprog > 750_000 {
		t.Errorf("nominal tPROG = %d ns, want ~700 us", tprog)
	}
	if DefaultMaxLoop != 15 {
		t.Errorf("DefaultMaxLoop = %d, want 15", DefaultMaxLoop)
	}
	// vertFTL's static V_Final trim is worth ~1 loop (~8%).
	if LoopsSaved(VertFTLFinalMV) != 1 {
		t.Errorf("vertFTL saves %d loops, want 1", LoopsSaved(VertFTLFinalMV))
	}
}

func TestBerEP1(t *testing.T) {
	if BerEP1(1e-4) != 1e-4*BEREP1Ratio {
		t.Error("BerEP1 scaling wrong")
	}
}

func TestOffsetPenaltyTableIsPow(t *testing.T) {
	for d := -2 * MaxReadOffsetLevel; d <= 2*MaxReadOffsetLevel; d++ {
		want := 1.0
		if d != 0 {
			want = math.Pow(OffsetPenaltyBase, math.Abs(float64(d)))
		}
		if got := OffsetPenalty(d); got != want {
			t.Errorf("OffsetPenalty(%d) = %v, want %v", d, got, want)
		}
	}
}
