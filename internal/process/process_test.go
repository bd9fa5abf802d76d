package process

import (
	"math"
	"testing"
	"testing/quick"

	"cubeftl/internal/ecc"
	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

func newModel(t testing.TB) *Model {
	t.Helper()
	return NewModel(DefaultConfig())
}

func TestNewModelPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero layers")
		}
	}()
	NewModel(Config{Layers: 0, WLsPerLayer: 4, BlocksPerChip: 1})
}

func TestDeterministicAcrossInstances(t *testing.T) {
	a := NewModel(DefaultConfig())
	b := NewModel(DefaultConfig())
	ag := Aging{PE: 1500, RetentionMonths: 6}
	for _, blk := range []int{0, 100, 427} {
		for _, l := range []int{0, 14, 30, 47} {
			if a.BER(blk, l, 2, ag) != b.BER(blk, l, 2, ag) {
				t.Fatalf("BER not deterministic at block %d layer %d", blk, l)
			}
			if a.OptimalOffset(blk, l, ag) != b.OptimalOffset(blk, l, ag) {
				t.Fatalf("OptimalOffset not deterministic at block %d layer %d", blk, l)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfgB := DefaultConfig()
	cfgB.Seed = 99
	a := NewModel(DefaultConfig())
	b := NewModel(cfgB)
	if a.BER(5, 10, 0, AgingFresh) == b.BER(5, 10, 0, AgingFresh) {
		t.Error("different seeds produced identical block 5 BER")
	}
}

// Fig 5: horizontal intra-layer similarity. deltaH must be ~1 for every
// layer, block, and aging state (the paper: "virtually all deltaH were 1").
func TestIntraLayerSimilarity(t *testing.T) {
	m := newModel(t)
	agings := []Aging{AgingFresh, AgingMidLife, AgingEndOfLife, {PE: 1000, RetentionMonths: 3}}
	for blk := 0; blk < m.Config().BlocksPerChip; blk += 37 {
		for l := 0; l < m.Config().Layers; l++ {
			for _, a := range agings {
				dh := m.DeltaH(blk, l, a)
				if dh < 1 {
					t.Fatalf("deltaH < 1 at block %d layer %d: %v", blk, l, dh)
				}
				if dh > 1.03 {
					t.Errorf("deltaH too large at block %d layer %d aging %+v: %v", blk, l, a, dh)
				}
			}
		}
	}
}

// Fig 6: vertical inter-layer variability grows from ~1.6 (fresh) to
// ~2.3 (2K P/E + 1-year retention).
func TestInterLayerVariabilityAnchors(t *testing.T) {
	m := newModel(t)
	meanDV := func(a Aging) float64 {
		sum := 0.0
		n := 0
		for blk := 0; blk < m.Config().BlocksPerChip; blk += 7 {
			sum += m.DeltaV(blk, a)
			n++
		}
		return sum / float64(n)
	}
	fresh := meanDV(AgingFresh)
	if fresh < 1.45 || fresh > 1.75 {
		t.Errorf("mean deltaV fresh = %.3f, want ~1.6", fresh)
	}
	eol := meanDV(AgingEndOfLife)
	if eol < 2.1 || eol > 2.5 {
		t.Errorf("mean deltaV at end-of-life = %.3f, want ~2.3", eol)
	}
	if eol <= fresh {
		t.Errorf("deltaV did not grow with aging: %.3f -> %.3f", fresh, eol)
	}
}

// Fig 6(d): per-block deltaV differences on the order of 18%.
func TestPerBlockDeltaVSpread(t *testing.T) {
	m := newModel(t)
	a := Aging{PE: 2000, RetentionMonths: 12}
	minDV, maxDV := math.Inf(1), 0.0
	for blk := 0; blk < m.Config().BlocksPerChip; blk++ {
		dv := m.DeltaV(blk, a)
		if dv < minDV {
			minDV = dv
		}
		if dv > maxDV {
			maxDV = dv
		}
	}
	spread := maxDV / minDV
	if spread < 1.10 || spread > 1.45 {
		t.Errorf("block-to-block deltaV spread = %.3f, want ~1.18 (10%%-45%% band)", spread)
	}
}

// The layer profile must have the paper's shape: unreliable edges, the
// worst layer (kappa) in the lower third, the best (beta) above middle.
func TestLayerProfileShape(t *testing.T) {
	m := newModel(t)
	L := m.Config().Layers
	if w := m.WorstLayer(); w < 4 || w > L*45/100 {
		t.Errorf("worst layer at %d, want in the lower third (but not the very edge)", w)
	}
	if b := m.BestLayer(); b <= L/2 || b >= L-4 {
		t.Errorf("best layer at %d, want above the middle, away from the top edge", b)
	}
	if m.layerBase[0] < 1.2 {
		t.Errorf("bottom edge layer multiplier %.3f, want elevated", m.layerBase[0])
	}
	if m.layerBase[L-1] < 1.1 {
		t.Errorf("top edge layer multiplier %.3f, want elevated", m.layerBase[L-1])
	}
	if m.layerBase[m.BestLayer()] != 1.0 {
		t.Errorf("best layer multiplier = %v, want exactly 1 after normalization", m.layerBase[m.BestLayer()])
	}
}

func TestBERMonotoneInAging(t *testing.T) {
	m := newModel(t)
	f := func(blkRaw, layerRaw uint8, pe1, pe2 uint16, r1, r2 uint8) bool {
		blk := int(blkRaw) % m.Config().BlocksPerChip
		layer := int(layerRaw) % m.Config().Layers
		peA, peB := int(pe1)%2001, int(pe2)%2001
		if peA > peB {
			peA, peB = peB, peA
		}
		ra, rb := float64(r1%13), float64(r2%13)
		if ra > rb {
			ra, rb = rb, ra
		}
		b1 := m.BER(blk, layer, 0, Aging{PE: peA, RetentionMonths: ra})
		b2 := m.BER(blk, layer, 0, Aging{PE: peB, RetentionMonths: rb})
		return b2 >= b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOptimalOffsetMonotoneAndBounded(t *testing.T) {
	m := newModel(t)
	f := func(blkRaw, layerRaw uint8, pe uint16, r uint8) bool {
		blk := int(blkRaw) % m.Config().BlocksPerChip
		layer := int(layerRaw) % m.Config().Layers
		a := Aging{PE: int(pe) % 2001, RetentionMonths: float64(r % 13)}
		o := m.OptimalOffset(blk, layer, a)
		if o < 0 || o > vth.MaxReadOffsetLevel {
			return false
		}
		// More retention never decreases the offset.
		o2 := m.OptimalOffset(blk, layer, Aging{PE: a.PE, RetentionMonths: a.RetentionMonths + 1})
		return o2 >= o
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFreshNoDrift(t *testing.T) {
	m := newModel(t)
	for blk := 0; blk < 50; blk++ {
		for l := 0; l < m.Config().Layers; l++ {
			if o := m.OptimalOffset(blk, l, AgingFresh); o != 0 {
				t.Fatalf("fresh block %d layer %d has offset %d", blk, l, o)
			}
		}
	}
}

// defaultReadFails reports whether a read at the default reference
// voltages (offset 0) of the given h-layer would exceed the ECC
// correction capability in expectation.
func defaultReadFails(m *Model, blk, layer int, a Aging) bool {
	o := m.OptimalOffset(blk, layer, a)
	ber := m.BER(blk, layer, 0, a) * vth.OffsetPenalty(o)
	return ber > ecc.LimitBER
}

// §6.2's probabilistic read-retry anchors: 0% of reads retry on fresh
// blocks, ~30% at 2K P/E + 1-month retention, ~90% at 2K + 1-year.
func TestReadRetryIncidenceAnchors(t *testing.T) {
	m := newModel(t)
	incidence := func(a Aging) float64 {
		fails, total := 0, 0
		for blk := 0; blk < m.Config().BlocksPerChip; blk++ {
			for l := 0; l < m.Config().Layers; l++ {
				if defaultReadFails(m, blk, l, a) {
					fails++
				}
				total++
			}
		}
		return float64(fails) / float64(total)
	}
	if f := incidence(AgingFresh); f != 0 {
		t.Errorf("fresh retry incidence = %.3f, want 0", f)
	}
	if f := incidence(AgingMidLife); f < 0.20 || f > 0.40 {
		t.Errorf("mid-life retry incidence = %.3f, want ~0.30", f)
	}
	if f := incidence(AgingEndOfLife); f < 0.82 || f > 0.97 {
		t.Errorf("end-of-life retry incidence = %.3f, want ~0.90", f)
	}
}

func TestLoopWindowsShape(t *testing.T) {
	m := newModel(t)
	for _, a := range []Aging{AgingFresh, AgingEndOfLife} {
		for blk := 0; blk < 20; blk++ {
			for l := 0; l < m.Config().Layers; l++ {
				ws := m.LoopWindows(blk, l, a)
				if len(ws) != vth.ProgramStates {
					t.Fatalf("got %d windows", len(ws))
				}
				prevMin := 0
				for i, w := range ws {
					if w.MinLoop < 1 || w.MaxLoop > vth.DefaultMaxLoop || w.MinLoop > w.MaxLoop {
						t.Fatalf("invalid window %+v for state P%d", w, i+1)
					}
					if w.MinLoop < prevMin {
						t.Fatalf("windows not ordered: state P%d MinLoop %d < previous %d", i+1, w.MinLoop, prevMin)
					}
					prevMin = w.MinLoop
				}
			}
		}
	}
}

// All word lines of an h-layer share loop windows — the process
// similarity behind VFY skipping. (LoopWindows has no WL argument by
// construction; this test documents that the derived nominal program
// time of the default parameters lands at the paper's ~700 us.)
func TestNominalProgramTime(t *testing.T) {
	m := newModel(t)
	ws := m.LoopWindows(0, m.BestLayer(), AgingFresh)
	maxLoop := 0
	totalVFY := 0
	for _, w := range ws {
		if w.MaxLoop > maxLoop {
			maxLoop = w.MaxLoop
		}
		totalVFY += w.MaxLoop // leader verifies state s in loops 1..MaxLoop(s)
	}
	tprog := int64(maxLoop)*vth.TPGMNs + int64(totalVFY)*vth.TVFYNs
	if tprog < 600_000 || tprog > 800_000 {
		t.Errorf("nominal leader tPROG = %d ns, want ~700 us", tprog)
	}
}

func TestBerEP1TracksBER(t *testing.T) {
	m := newModel(t)
	b := m.BER(3, 10, 0, AgingMidLife)
	ep1 := m.BerEP1(3, 10, AgingMidLife)
	if math.Abs(ep1-b*vth.BEREP1Ratio) > 1e-15 {
		t.Errorf("BerEP1 = %v, want %v", ep1, b*vth.BEREP1Ratio)
	}
}

func TestRetentionCurve(t *testing.T) {
	if retention(0) != 0 {
		t.Error("retention(0) != 0")
	}
	if math.Abs(retention(12)-1) > 1e-12 {
		t.Errorf("retention(12) = %v, want 1", retention(12))
	}
	if !(retention(1) > 0.2 && retention(1) < 0.35) {
		t.Errorf("retention(1) = %v, want fast early loss (~0.27)", retention(1))
	}
	if retention(6) <= retention(1) {
		t.Error("retention not monotone")
	}
}

// The expressions the read path's cached terms came out of, as they
// were written before the cache (math.Log(13) and both math.Pow calls
// evaluated per call): the oracle for ReadTerms.
func refOptimalOffset(m *Model, block, layer int, a Aging) int {
	pe := float64(a.PE) / EnduranceLimit
	r := 0.0
	if a.RetentionMonths > 0 {
		r = math.Log(1+a.RetentionMonths) / math.Log(13)
	}
	if pe <= 0 && r <= 0 {
		return 0
	}
	drift := driftScale *
		math.Pow(pe, driftPEExp) *
		math.Pow(r, driftRetExp) *
		(0.55 + 0.45*m.effSeverity(block, layer)) *
		m.driftFactor[block*m.cfg.Layers+layer]
	return min(max(int(math.Round(drift)), 0), vth.MaxReadOffsetLevel)
}

func refBER(m *Model, block, layer, wl int, a Aging) float64 {
	pe := max(float64(a.PE)/EnduranceLimit, 0)
	r := 0.0
	if a.RetentionMonths > 0 {
		r = math.Log(1+a.RetentionMonths) / math.Log(13)
	}
	s := m.effSeverity(block, layer)
	peF := 1 + (peGrowthBase+peGrowthSeverity*s)*pe
	retF := 1 + (retGrowthBase+retGrowthSeverity*s)*r
	return baseBER *
		m.layerEff(block, layer) *
		m.blockFactor[block] *
		(peF * retF) *
		m.wlFactor[(block*m.cfg.Layers+layer)*m.cfg.WLsPerLayer+wl]
}

// The read path's cached terms are the operands of BER and
// OptimalOffset, not approximations of them: same bits, whatever aging
// state the cache held before.
func TestReadTermsBitIdentical(t *testing.T) {
	m := NewModel(DefaultConfig())
	src := rng.New(11)
	var terms ReadTerms
	for i := 0; i < 20000; i++ {
		a := Aging{PE: src.Intn(3000), RetentionMonths: 24 * src.Float64()}
		switch src.Intn(5) {
		case 0:
			a.RetentionMonths = 0
		case 1:
			a.PE = 0
		case 2:
			a = Aging{}
		}
		block, layer, wl := src.Intn(m.Config().BlocksPerChip), src.Intn(m.Config().Layers), src.Intn(m.Config().WLsPerLayer)
		terms.Update(a)
		want := refBER(m, block, layer, wl, a)
		if got := m.BERAt(block, layer, wl, &terms); got != want || m.BER(block, layer, wl, a) != want {
			t.Fatalf("BERAt(%v) = %v, BER = %v, reference %v", a, got, m.BER(block, layer, wl, a), want)
		}
		wantOff := refOptimalOffset(m, block, layer, a)
		if got := m.OptimalOffsetAt(block, layer, &terms); got != wantOff || m.OptimalOffset(block, layer, a) != wantOff {
			t.Fatalf("OptimalOffsetAt(%v) = %d, OptimalOffset = %d, reference %d", a, got, m.OptimalOffset(block, layer, a), wantOff)
		}
	}
}

// NewModel allocates its tables and nothing per block or h-layer: the
// sources it derives for every block and every (block, h-layer) pair
// stay on its stack, which holds only while rng's New and DeriveN
// inline. Models of 1 and of 428 blocks cost the same. The Benchmark
// twin reports the same with -benchmem.
func TestNewModelAllocs(t *testing.T) {
	allocs := func(blocks int) float64 {
		cfg := DefaultConfig()
		cfg.BlocksPerChip = blocks
		return testing.AllocsPerRun(5, func() { NewModel(cfg) })
	}
	small, large := allocs(1), allocs(DefaultConfig().BlocksPerChip)
	if small != large {
		t.Errorf("NewModel: %.0f allocations at 1 block, %.0f at %d", small, large, DefaultConfig().BlocksPerChip)
	}
	if large > 10 {
		t.Errorf("NewModel: %.0f allocations, want at most 10", large)
	}
}

func BenchmarkNewModel(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewModel(cfg)
	}
}
