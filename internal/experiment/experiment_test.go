package experiment

import (
	"bytes"
	"strings"
	"testing"

	"cubeftl/internal/vth"
	"cubeftl/internal/workload"
)

// smallOpts keeps SSD-level tests fast.
func smallOpts() SSDOpts {
	o := DefaultSSDOpts()
	o.BlocksPerChip = 16
	o.Requests = 3000
	return o
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title: "demo",
		Cols:  []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "a", "1", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig05Anchors(t *testing.T) {
	r := Fig05(1)
	if r.MaxDeltaH > 1.04 {
		t.Errorf("max deltaH = %v, want ~1", r.MaxDeltaH)
	}
	for w := 1; w < 4; w++ {
		if r.TPROGPerWL[w] != r.TPROGPerWL[0] {
			t.Errorf("tPROG differs across WLs: %v", r.TPROGPerWL)
		}
	}
	// Edge and kappa layers must sit above beta.
	if r.FreshNormBER["kappa"][0] <= r.FreshNormBER["beta"][0] {
		t.Error("kappa not worse than beta")
	}
	if r.FreshNormBER["omega"][0] <= r.FreshNormBER["beta"][0] {
		t.Error("omega edge not worse than beta")
	}
	// Table renders.
	if got := r.Table(); len(got.Rows) != 8 {
		t.Errorf("Fig05 table rows = %d", len(got.Rows))
	}
}

func TestFig06Anchors(t *testing.T) {
	r := Fig06(1)
	if dv := r.DeltaV["0K"]; dv < 1.45 || dv > 1.8 {
		t.Errorf("fresh deltaV = %v, want ~1.6", dv)
	}
	if dv := r.DeltaV["2K+1yr"]; dv < 2.1 || dv > 2.6 {
		t.Errorf("EOL deltaV = %v, want ~2.3", dv)
	}
	if r.DeltaV["2K+1yr"] <= r.DeltaV["0K"] {
		t.Error("deltaV did not grow with aging")
	}
	spread := r.DeltaVBlockI / r.DeltaVBlockII
	if spread < 1.05 || spread > 1.35 {
		t.Errorf("sample-block deltaV spread = %v, want ~1.18", spread)
	}
	if len(r.Table().Rows) == 0 {
		t.Error("empty Fig06 table")
	}
}

func TestFig08Anchors(t *testing.T) {
	r := Fig08(1)
	// §4.1.1: safe skipping buys ~16.2% of tPROG.
	if r.TPROGReduction < 0.12 || r.TPROGReduction > 0.21 {
		t.Errorf("VFY-skip reduction = %v, want ~0.162", r.TPROGReduction)
	}
	// Higher states skip more (paper: P7 up to 7, P1 only 1).
	if r.SafeSkipMean[6] <= r.SafeSkipMean[0] {
		t.Errorf("P7 mean skips %v not above P1 %v", r.SafeSkipMean[6], r.SafeSkipMean[0])
	}
	if r.SafeSkipMin[0] < 0 {
		t.Error("negative skip budget")
	}
	// BER rises monotonically with skips past the budget.
	for s := 0; s < vth.ProgramStates; s++ {
		series := r.BERVsSkip[s]
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Fatalf("state P%d: BER not monotone in skips", s+1)
			}
		}
	}
	if len(r.Table().Rows) != vth.ProgramStates {
		t.Error("Fig08 table malformed")
	}
}

func TestFig10Anchors(t *testing.T) {
	r := Fig10(1)
	if len(r.Layers) != 4 {
		t.Fatalf("layers = %v", r.Layers)
	}
	byName := map[string]int{}
	for i, l := range r.Layers {
		byName[l] = r.SafeMarginMV[i]
	}
	// The best layer tolerates at least as much margin as the worst.
	if byName["beta"] < byName["kappa"] {
		t.Errorf("beta safe margin %d below kappa %d", byName["beta"], byName["kappa"])
	}
	for i := range r.Layers {
		if r.BERAtSafe[i] > 1 {
			t.Errorf("%s: safe margin exceeds the ECC limit (%v)", r.Layers[i], r.BERAtSafe[i])
		}
	}
	if len(r.Table().Rows) != 4 {
		t.Error("Fig10 table malformed")
	}
}

func TestFig11Anchors(t *testing.T) {
	r := Fig11(1)
	// BER_EP1 must be a strong health indicator.
	if r.Correlation < 0.9 {
		t.Errorf("BER_EP1 correlation = %v, want strong", r.Correlation)
	}
	// The S_M = 1.7 anchor: 320 mV and ~19.7% tPROG reduction.
	found := false
	for i, sm := range r.SM {
		if sm == 1.7 {
			found = true
			if r.MarginMV[i] != 320 {
				t.Errorf("S_M 1.7 -> %d mV, want 320", r.MarginMV[i])
			}
			if r.TPROGRed[i] < 0.15 || r.TPROGRed[i] > 0.25 {
				t.Errorf("S_M 1.7 tPROG reduction = %v, want ~0.197", r.TPROGRed[i])
			}
		}
	}
	if !found {
		t.Fatal("sweep missing the S_M = 1.7 anchor")
	}
	// Reduction grows with S_M.
	for i := 1; i < len(r.TPROGRed); i++ {
		if r.TPROGRed[i] < r.TPROGRed[i-1]-1e-9 {
			t.Errorf("tPROG reduction not monotone in S_M: %v", r.TPROGRed)
		}
	}
}

func TestFig13Anchors(t *testing.T) {
	r := Fig13(1)
	if len(r.Orders) != 3 {
		t.Fatalf("orders = %v", r.Orders)
	}
	for i, v := range r.NormBER {
		if v < 0.97 || v > 1.03 {
			t.Errorf("%s normalized BER = %v, want within 3%%", r.Orders[i], v)
		}
	}
}

func TestFig14Anchors(t *testing.T) {
	r := Fig14(1)
	if red := r.Reduction(); red < 0.55 || red > 0.85 {
		t.Errorf("NumRetry reduction = %v, want ~0.66", red)
	}
	if r.UnawareMean < 1.5 {
		t.Errorf("unaware mean NumRetry = %v, implausibly low for EOL", r.UnawareMean)
	}
	// Distributions sum to ~1.
	for _, dist := range [][]float64{r.UnawareDist, r.AwareDist} {
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("distribution sums to %v", sum)
		}
	}
	// The aware distribution is far more concentrated at zero.
	if r.AwareDist[0] < 2*r.UnawareDist[0] {
		t.Errorf("aware zero-retry mass %v not well above unaware %v", r.AwareDist[0], r.UnawareDist[0])
	}
}

func TestFig17FreshShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	r := Fig17(smallOpts())
	if len(r.Workloads) != 6 || len(r.Policies) != 3 {
		t.Fatalf("matrix %dx%d", len(r.Workloads), len(r.Policies))
	}
	for w := range r.Workloads {
		cube := r.NormalizedIOPS(w, 2)
		if cube < 1.0 {
			t.Errorf("%s: cubeFTL normalized IOPS %v below baseline", r.Workloads[w], cube)
		}
	}
	gain, _ := r.MaxGain(2)
	if gain < 0.08 {
		t.Errorf("cubeFTL max gain = %v, want clearly positive (paper: up to 0.48)", gain)
	}
	// cubeFTL must beat vertFTL where it wins most.
	vertGain, _ := r.MaxGain(1)
	if gain <= vertGain {
		t.Errorf("cubeFTL gain %v not above vertFTL %v", gain, vertGain)
	}
}

func TestFig17AgedGainsGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	fresh := Fig17(smallOpts())
	aged := smallOpts()
	aged.PECycles, aged.RetentionMonths = 2000, 12
	eol := Fig17(aged)
	fg, _ := fresh.MaxGain(2)
	eg, _ := eol.MaxGain(2)
	if eg <= fg {
		t.Errorf("EOL max gain %v not above fresh %v (paper: retry reduction dominates)", eg, fg)
	}
}

func TestFig18Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	r := Fig18(smallOpts())
	if len(r.Policies) != 4 {
		t.Fatalf("policies = %v", r.Policies)
	}
	// cubeFTL's write P90 must clearly undercut pageFTL's (paper: 0.72
	// vs 1.10 ms).
	if r.WriteP90[3] >= r.WriteP90[0] {
		t.Errorf("cube write P90 %d not below page %d", r.WriteP90[3], r.WriteP90[0])
	}
	if float64(r.WriteP90[3]) > 0.92*float64(r.WriteP90[0]) {
		t.Errorf("cube write P90 reduction too small: %d vs %d", r.WriteP90[3], r.WriteP90[0])
	}
	// And cube must not clearly lose to cube- at the 80th percentile
	// (the WAM effect; small geometries leave it within noise).
	if float64(r.WriteP80[3]) > 1.06*float64(r.WriteP80[2]) {
		t.Errorf("cube write P80 %d well above cube- %d", r.WriteP80[3], r.WriteP80[2])
	}
}

func TestTprogAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	r := TprogAudit(smallOpts())
	if v := r.VertReduction(); v < 0.03 || v > 0.13 {
		t.Errorf("vertFTL tPROG reduction = %v, want ~0.08", v)
	}
	if c := r.CubeReduction(); c < 0.12 || c > 0.35 {
		t.Errorf("cubeFTL tPROG reduction = %v, want ~0.22 overall", c)
	}
	if r.CubeReduction() <= r.VertReduction() {
		t.Error("cubeFTL not ahead of vertFTL")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	o := smallOpts()
	o.Requests = 2000

	mu := AblationMuThreshold(o)
	if len(mu.Values) != 5 {
		t.Errorf("mu sweep = %v", mu.Values)
	}
	ab := AblationActiveBlocks(o)
	if len(ab.Values) != 3 {
		t.Errorf("active-block sweep = %v", ab.Values)
	}
	po := AblationProgramOrder(o)
	if len(po.Values) != 3 {
		t.Errorf("order sweep = %v", po.Values)
	}
	og := AblationORTGranularity(o)
	if len(og.Values) != 3 {
		t.Errorf("ORT sweep = %v", og.Values)
	}
	// All granularities must stay in the same performance regime; the
	// per-layer table's advantage shows on re-read-heavy sweeps
	// (Fig 14), while cold wide footprints favor coarser sharing.
	best := 0.0
	for _, v := range og.IOPS {
		if v > best {
			best = v
		}
	}
	if og.IOPS[0] < 0.8*best {
		t.Errorf("per-layer ORT IOPS %v far below best %v", og.IOPS[0], best)
	}
	sc := AblationSafetyCheck(o)
	if sc.Series("reprograms")[0] == 0 {
		t.Error("safety check on: no reprograms despite injected disturbances")
	}
	if sc.Series("reprograms")[1] != 0 {
		t.Error("safety check off: reprograms still happened")
	}
	for _, r := range []*AblationResult{mu, ab, po, og, sc} {
		if len(r.Table().Rows) == 0 {
			t.Errorf("%s: empty table", r.Title)
		}
	}
	// The extra series print in declaration order, every time: a
	// same-seed run is byte-identical.
	var first bytes.Buffer
	sc.Table().Fprint(&first)
	if got := strings.Join(sc.Table().Cols, "|"); got != "safety check|IOPS|retries/read|reprograms|uncorrectable" {
		t.Errorf("abl-safety columns out of declaration order: %s", got)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		sc.Table().Fprint(&again)
		if again.String() != first.String() {
			t.Fatalf("abl-safety rendered two ways:\n%s\n%s", first.String(), again.String())
		}
	}
}

func TestRunWorkloadOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	o := smallOpts()
	o.Requests = 1500
	out := RunWorkload(PolicyCube, workload.Mail, o)
	if out.Policy != PolicyCube || out.Workload != "Mail" {
		t.Errorf("labels: %+v", out)
	}
	if out.IOPS() <= 0 {
		t.Error("no throughput")
	}
	if out.Stats.HostReads+out.Stats.HostWrites < int64(o.Requests) {
		t.Errorf("requests unaccounted: %d reads + %d writes", out.Stats.HostReads, out.Stats.HostWrites)
	}
}

func TestRelWork(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	r := RelWork(smallOpts())
	if len(r.States) != 2 || len(r.Policies) != 4 {
		t.Fatalf("matrix %dx%d", len(r.States), len(r.Policies))
	}
	// Fresh: ispFTL's aggressive step competes with cubeFTL; both beat
	// the static baselines.
	if r.Norm[0][1] < 1.1 {
		t.Errorf("fresh ispFTL normalized IOPS = %v, want clearly above pageFTL", r.Norm[0][1])
	}
	// End of life: ispFTL's advantage must have faded to ~nothing,
	// while cubeFTL keeps a clear lead (the paper's §7 argument).
	if r.Norm[1][1] > 1.08 {
		t.Errorf("EOL ispFTL normalized IOPS = %v, want faded to ~1", r.Norm[1][1])
	}
	if r.Norm[1][3] < 1.05 {
		t.Errorf("EOL cubeFTL normalized IOPS = %v, want a clear lead", r.Norm[1][3])
	}
	if r.IspFadeFactor() < 0.05 {
		t.Errorf("ispFTL fade factor = %v", r.IspFadeFactor())
	}
	if len(r.Table().Rows) != 2 {
		t.Error("relwork table malformed")
	}
}
