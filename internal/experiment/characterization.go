package experiment

import (
	"fmt"
	"math"
	"sort"

	"cubeftl/internal/ecc"
	"cubeftl/internal/nand"
	"cubeftl/internal/process"
	"cubeftl/internal/vth"
)

// charChip builds a full-geometry chip for characterization runs.
func charChip(seed uint64) *nand.Chip {
	cfg := nand.DefaultConfig()
	cfg.Process.Seed = seed
	return nand.New(cfg)
}

// RepresentativeLayers returns the paper's four labelled h-layers:
// alpha (top edge), beta (best), kappa (worst) and omega (bottom edge).
func RepresentativeLayers(m *process.Model) map[string]int {
	return map[string]int{
		"alpha": m.Config().Layers - 1,
		"beta":  m.BestLayer(),
		"kappa": m.WorstLayer(),
		"omega": 0,
	}
}

// Fig05Result is the intra-layer-similarity characterization (Fig 5).
type Fig05Result struct {
	// NormBER[label][wl] for fresh (a) and end-of-life (b) states,
	// normalized over the best h-layer's fresh leading WL.
	FreshNormBER map[string][4]float64
	AgedNormBER  map[string][4]float64
	// MaxDeltaH is the worst deltaH seen across blocks, layers, agings (c).
	MaxDeltaH float64
	// TPROGPerWL holds the program latencies of the four WLs of one
	// h-layer (d) — identical under process similarity.
	TPROGPerWL [4]int64
}

// Fig05 runs the §3.2 characterization: word lines on the same h-layer
// are virtually equivalent (deltaH ~= 1) in BER and in tPROG.
func Fig05(seed uint64) *Fig05Result {
	chip := charChip(seed)
	m := chip.Model()
	layers := RepresentativeLayers(m)
	res := &Fig05Result{
		FreshNormBER: map[string][4]float64{},
		AgedNormBER:  map[string][4]float64{},
	}
	const block = 0
	ref := m.BER(block, m.BestLayer(), 0, process.AgingFresh)
	for label, l := range layers {
		var fresh, aged [4]float64
		for w := 0; w < 4; w++ {
			fresh[w] = m.BER(block, l, w, process.AgingFresh) / ref
			aged[w] = m.BER(block, l, w, process.AgingEndOfLife) / ref
		}
		res.FreshNormBER[label] = fresh
		res.AgedNormBER[label] = aged
	}
	// (c) deltaH across blocks and aging conditions.
	agings := []process.Aging{
		process.AgingFresh, {PE: 1000, RetentionMonths: 3},
		process.AgingMidLife, process.AgingEndOfLife,
	}
	for blk := 0; blk < m.Config().BlocksPerChip; blk += 5 {
		for l := 0; l < m.Config().Layers; l++ {
			for _, a := range agings {
				if dh := m.DeltaH(blk, l, a); dh > res.MaxDeltaH {
					res.MaxDeltaH = dh
				}
			}
		}
	}
	// (d) tPROG of the four WLs of one mid h-layer.
	var r nand.ProgramResult
	for w := 0; w < 4; w++ {
		if err := chip.ProgramWLOOB(nand.Address{Block: 1, Layer: m.BestLayer(), WL: w}, nil, nil, nand.ProgramParams{}, &r); err != nil {
			panic(err)
		}
		res.TPROGPerWL[w] = r.LatencyNs
	}
	return res
}

// Table renders Fig 5's rows.
func (r *Fig05Result) Table() *Table {
	t := &Table{
		Title: "Fig 5: horizontal intra-layer similarity",
		Cols:  []string{"h-layer", "state", "WL1", "WL2", "WL3", "WL4"},
	}
	for _, label := range []string{"omega", "kappa", "beta", "alpha"} {
		f := r.FreshNormBER[label]
		a := r.AgedNormBER[label]
		t.Rows = append(t.Rows,
			[]string{label, "fresh", f3(f[0]), f3(f[1]), f3(f[2]), f3(f[3])},
			[]string{label, "2K+1yr", f3(a[0]), f3(a[1]), f3(a[2]), f3(a[3])})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("max deltaH over blocks x layers x agings = %.4f (paper: ~1)", r.MaxDeltaH),
		fmt.Sprintf("tPROG of WL1..WL4 on one h-layer: %d %d %d %d ns (paper: identical)",
			r.TPROGPerWL[0], r.TPROGPerWL[1], r.TPROGPerWL[2], r.TPROGPerWL[3]))
	return t
}

// Fig06Result is the inter-layer-variability characterization (Fig 6).
type Fig06Result struct {
	// NormBER[aging][layer]: leading-WL BER normalized over the best
	// fresh h-layer, for the three §6.2 aging states (a, b, c).
	NormBER map[string][]float64
	// DeltaV per aging state.
	DeltaV map[string]float64
	// Per-block comparison (d): deltaV of two sample blocks at EOL.
	BlockI, BlockII int
	DeltaVBlockI    float64
	DeltaVBlockII   float64
}

// Fig06 runs the §3.3 characterization: strong, nonlinearly aging
// inter-layer variability (deltaV 1.6 -> 2.3) with per-block differences.
func Fig06(seed uint64) *Fig06Result {
	m := process.NewModel(func() process.Config {
		c := process.DefaultConfig()
		c.Seed = seed
		return c
	}())
	res := &Fig06Result{NormBER: map[string][]float64{}, DeltaV: map[string]float64{}}
	const block = 0
	ref := m.BER(block, m.BestLayer(), 0, process.AgingFresh)
	states := map[string]process.Aging{
		"0K":     process.AgingFresh,
		"2K+1mo": process.AgingMidLife,
		"2K+1yr": process.AgingEndOfLife,
	}
	for label, a := range states {
		series := make([]float64, m.Config().Layers)
		for l := range series {
			series[l] = m.BER(block, l, 0, a) / ref
		}
		res.NormBER[label] = series
		res.DeltaV[label] = m.DeltaV(block, a)
	}
	// (d): two sample blocks — the 10th- and 90th-percentile blocks of
	// the per-block deltaV distribution at end of life.
	type blockDV struct {
		b  int
		dv float64
	}
	all := make([]blockDV, m.Config().BlocksPerChip)
	for b := range all {
		all[b] = blockDV{b, m.DeltaV(b, process.AgingEndOfLife)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dv < all[j].dv })
	lo := all[len(all)/10]
	hi := all[len(all)*9/10]
	res.BlockI, res.BlockII = hi.b, lo.b
	res.DeltaVBlockI, res.DeltaVBlockII = hi.dv, lo.dv
	return res
}

// Table renders Fig 6's per-layer series (sampled every 4 layers).
func (r *Fig06Result) Table() *Table {
	t := &Table{
		Title: "Fig 6: vertical inter-layer variability (normalized leading-WL BER)",
		Cols:  []string{"h-layer", "0K", "2K+1mo", "2K+1yr"},
	}
	n := len(r.NormBER["0K"])
	for l := 0; l < n; l += 4 {
		t.Rows = append(t.Rows, []string{
			d(l), f3(r.NormBER["0K"][l]), f3(r.NormBER["2K+1mo"][l]), f3(r.NormBER["2K+1yr"][l]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("deltaV: fresh %.2f, 2K+1mo %.2f, 2K+1yr %.2f (paper: 1.6 -> 2.3)",
			r.DeltaV["0K"], r.DeltaV["2K+1mo"], r.DeltaV["2K+1yr"]),
		fmt.Sprintf("block %d vs block %d deltaV at EOL: %.2f vs %.2f (%.0f%% apart; paper: ~18%%)",
			r.BlockI, r.BlockII, r.DeltaVBlockI, r.DeltaVBlockII,
			100*(r.DeltaVBlockI/r.DeltaVBlockII-1)))
	return t
}

// Fig08Result is the VFY-skipping characterization (Fig 8).
type Fig08Result struct {
	// BERVsSkip[state][skip] is the normalized programmed BER after
	// skipping `skip` verifies for state P(state+1) (a). Normalization
	// is over the worst h-layer at 2K P/E + 1-year retention.
	BERVsSkip [vth.ProgramStates][]float64
	// SafeSkips[state] is the per-state safe skip count distribution
	// (min/mean/max) observed across h-layers (b).
	SafeSkipMin  [vth.ProgramStates]int
	SafeSkipMean [vth.ProgramStates]float64
	SafeSkipMax  [vth.ProgramStates]int
	// TPROGReduction is the average tPROG saving from the full safe
	// skip plan (§4.1.1 reports 16.2%).
	TPROGReduction float64
}

// Fig08 sweeps verify skipping per program state and derives the safe
// skip (N_skip) distributions from leader monitoring.
func Fig08(seed uint64) *Fig08Result {
	chip := charChip(seed)
	m := chip.Model()
	res := &Fig08Result{}
	worstEOL := m.BER(0, m.WorstLayer(), 0, process.AgingEndOfLife)

	// (a) BER vs number of skipped VFYs, on a representative layer.
	layer := m.BestLayer()
	windows := m.LoopWindows(0, layer, process.AgingFresh)
	base := m.BER(0, layer, 0, process.AgingEndOfLife)
	for s := 0; s < vth.ProgramStates; s++ {
		safe := windows[s].MinLoop - 1
		series := make([]float64, 10)
		for skip := 0; skip < 10; skip++ {
			series[skip] = base * vth.SkipBERPenalty(skip, safe) / worstEOL
		}
		res.BERVsSkip[s] = series
	}

	// (b) N_skip distributions across h-layers and blocks.
	counts := make([][]int, vth.ProgramStates)
	for blk := 0; blk < m.Config().BlocksPerChip; blk += 7 {
		for l := 0; l < m.Config().Layers; l++ {
			ws := m.LoopWindows(blk, l, process.AgingFresh)
			for s, w := range ws {
				counts[s] = append(counts[s], w.MinLoop-1)
			}
		}
	}
	for s, cs := range counts {
		sort.Ints(cs)
		res.SafeSkipMin[s] = cs[0]
		res.SafeSkipMax[s] = cs[len(cs)-1]
		sum := 0
		for _, v := range cs {
			sum += v
		}
		res.SafeSkipMean[s] = float64(sum) / float64(len(cs))
	}

	// Average tPROG reduction from the full safe skip plan, measured on
	// real program operations across layers.
	var leadNs, follNs int64
	var lead, foll nand.ProgramResult
	for l := 0; l < m.Config().Layers; l++ {
		if err := chip.ProgramWLOOB(nand.Address{Block: 2, Layer: l, WL: 0}, nil, nil, nand.ProgramParams{}, &lead); err != nil {
			panic(err)
		}
		var p nand.ProgramParams
		for s, w := range lead.Windows {
			p.SkipVFY[s] = w.MinLoop - 1
		}
		if err := chip.ProgramWLOOB(nand.Address{Block: 2, Layer: l, WL: 1}, nil, nil, p, &foll); err != nil {
			panic(err)
		}
		leadNs += lead.LatencyNs
		follNs += foll.LatencyNs
	}
	res.TPROGReduction = 1 - float64(follNs)/float64(leadNs)
	return res
}

// Table renders Fig 8's rows.
func (r *Fig08Result) Table() *Table {
	t := &Table{
		Title: "Fig 8: effect of skipped VFYs per program state",
		Cols:  []string{"state", "BER@skip0", "BER@safe", "BER@safe+2", "Nskip min", "Nskip mean", "Nskip max"},
	}
	for s := 0; s < vth.ProgramStates; s++ {
		safe := r.SafeSkipMax[s]
		if safe > 9 {
			safe = 9
		}
		over := safe + 2
		if over > 9 {
			over = 9
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("P%d", s+1),
			f3(r.BERVsSkip[s][0]), f3(r.BERVsSkip[s][safe]), f3(r.BERVsSkip[s][over]),
			d(r.SafeSkipMin[s]), f1(r.SafeSkipMean[s]), d(r.SafeSkipMax[s]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average tPROG reduction from safe VFY skipping = %.1f%% (paper: 16.2%%)",
			100*r.TPROGReduction))
	return t
}

// Fig10Result characterizes safe V_Start/V_Final adjustment margins per
// h-layer (Fig 10): the largest window tightening whose programmed BER
// still stays under the ECC capability at end of life.
type Fig10Result struct {
	Layers       []string
	SafeMarginMV []int
	BERAtSafe    []float64 // fraction of the ECC limit
	BERAt400     []float64
}

// Fig10 sweeps window-adjustment margins on the representative layers.
// "Safe" requires the programmed BER at end of life to stay under the
// ECC capability with one read-reference offset step of slack, so a
// mispredicted read voltage does not immediately push the page past
// the limit.
func Fig10(seed uint64) *Fig10Result {
	m := process.NewModel(func() process.Config {
		c := process.DefaultConfig()
		c.Seed = seed
		return c
	}())
	res := &Fig10Result{}
	guarded := ecc.LimitBER / vth.OffsetPenalty(1)
	labels := RepresentativeLayers(m)
	for _, label := range []string{"omega", "kappa", "beta", "alpha"} {
		l := labels[label]
		eol := m.BER(0, l, 0, process.AgingEndOfLife)
		safe := 0
		for mv := 0; mv <= vth.MaxAdjustMarginMV; mv += vth.MarginQuantumMV {
			if eol*vth.MarginBERPenalty(mv) <= guarded {
				safe = mv
			}
		}
		res.Layers = append(res.Layers, label)
		res.SafeMarginMV = append(res.SafeMarginMV, safe)
		res.BERAtSafe = append(res.BERAtSafe, eol*vth.MarginBERPenalty(safe)/ecc.LimitBER)
		res.BERAt400 = append(res.BERAt400, eol*vth.MarginBERPenalty(400)/ecc.LimitBER)
	}
	return res
}

// Table renders Fig 10's rows.
func (r *Fig10Result) Table() *Table {
	t := &Table{
		Title: "Fig 10: safe V_Start/V_Final adjustment margins per h-layer (EOL)",
		Cols:  []string{"h-layer", "safe margin (mV)", "BER/limit @safe", "BER/limit @400mV"},
	}
	for i, l := range r.Layers {
		t.Rows = append(t.Rows, []string{
			l, d(r.SafeMarginMV[i]), f3(r.BERAtSafe[i]), f3(r.BERAt400[i]),
		})
	}
	return t
}

// Fig11Result is the BER_EP1-driven margin conversion (Fig 11).
type Fig11Result struct {
	// Correlation between BER_EP1 and retention BER across layers,
	// blocks, and agings (a).
	Correlation float64
	// Conversion rows (b): S_M -> margin -> tPROG reduction.
	SM       []float64
	MarginMV []int
	TPROGRed []float64
}

// Fig11 validates BER_EP1 as a health indicator and reproduces the
// S_M -> margin -> tPROG-reduction conversion, including the paper's
// S_M = 1.7 -> 320 mV -> 19.7% anchor.
func Fig11(seed uint64) *Fig11Result {
	chip := charChip(seed)
	m := chip.Model()
	// (a) correlation over sampled (noisy) measurements across a grid
	// of (block, layer, aging), as a test-board study would collect.
	var xs, ys []float64
	agings := []process.Aging{process.AgingFresh, {PE: 1000, RetentionMonths: 3}, process.AgingMidLife, process.AgingEndOfLife}
	for blk := 0; blk < m.Config().BlocksPerChip; blk += 17 {
		for l := 0; l < m.Config().Layers; l += 3 {
			for _, a := range agings {
				addr := nand.Address{Block: blk, Layer: l}
				xs = append(xs, float64(chip.SampleBerEP1Errors(addr, a)))
				ys = append(ys, float64(chip.SampleRetentionErrors(addr, a)))
			}
		}
	}
	res := &Fig11Result{Correlation: pearson(xs, ys)}

	// (b) conversion sweep measured on real programs: each sweep point
	// gets its own block so the leader/follower pair shares an h-layer.
	var lead, r nand.ProgramResult
	for i, sm := range []float64{0.3, 0.7, 1.1, 1.5, 1.7, 2.1} {
		blk := 3 + i
		layer := m.BestLayer()
		if err := chip.ProgramWLOOB(nand.Address{Block: blk, Layer: layer, WL: 0}, nil, nil, nand.ProgramParams{}, &lead); err != nil {
			panic(err)
		}
		mv := vth.SMToMarginMV(sm)
		s, f := vth.SplitMargin(mv)
		if err := chip.ProgramWLOOB(nand.Address{Block: blk, Layer: layer, WL: 1}, nil, nil,
			nand.ProgramParams{StartMarginMV: s, FinalMarginMV: f}, &r); err != nil {
			panic(err)
		}
		res.SM = append(res.SM, sm)
		res.MarginMV = append(res.MarginMV, mv)
		res.TPROGRed = append(res.TPROGRed, 1-float64(r.LatencyNs)/float64(lead.LatencyNs))
	}
	return res
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	num := sxy - sx*sy/n
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return num / den
}

// Table renders Fig 11's rows.
func (r *Fig11Result) Table() *Table {
	t := &Table{
		Title: "Fig 11: S_M-driven V_Start/V_Final adjustment",
		Cols:  []string{"S_M", "margin (mV)", "tPROG reduction"},
	}
	for i := range r.SM {
		t.Rows = append(t.Rows, []string{
			f2(r.SM[i]), d(r.MarginMV[i]), fmt.Sprintf("%.1f%%", 100*r.TPROGRed[i]),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("BER_EP1 vs retention-BER correlation = %.3f (paper: strong, Fig 11(a))", r.Correlation),
		"paper anchor: S_M = 1.7 -> 320 mV -> 19.7% tPROG reduction")
	return t
}
