package experiment

import (
	"fmt"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// The ablation studies probe the design choices DESIGN.md calls out:
// the WAM threshold, the number of active blocks, the program order,
// the ORT granularity, and the safety check.

// AblationResult is a generic one-knob sweep.
type AblationResult struct {
	Title  string
	Knob   string
	Values []string
	IOPS   []float64
	// Extra holds the additional per-value series, in declaration order:
	// the order the table's columns print in.
	Extra []Series
}

// Series is one named per-value column of a sweep.
type Series struct {
	Name   string
	Values []float64
}

// point records one knob value's IOPS and its extra-series values, in
// the order Extra declares them.
func (r *AblationResult) point(value string, out RunOutcome, extra ...float64) {
	r.Values = append(r.Values, value)
	r.IOPS = append(r.IOPS, out.IOPS())
	for i, v := range extra {
		r.Extra[i].Values = append(r.Extra[i].Values, v)
	}
}

// Series returns the named extra series (nil if the sweep has none).
func (r *AblationResult) Series(name string) []float64 {
	for _, s := range r.Extra {
		if s.Name == name {
			return s.Values
		}
	}
	return nil
}

// Table renders the sweep.
func (r *AblationResult) Table() *Table {
	t := &Table{Title: r.Title, Cols: []string{r.Knob, "IOPS"}}
	for _, s := range r.Extra {
		t.Cols = append(t.Cols, s.Name)
	}
	for i, v := range r.Values {
		row := []string{v, fmt.Sprintf("%.0f", r.IOPS[i])}
		for _, s := range r.Extra {
			row = append(row, f2(s.Values[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// cubeWith builds the evaluation device under a cubeFTL whose
// configuration the ablation mutated.
func cubeWith(opts SSDOpts, mutate func(*core.Config)) *stack.Stack {
	cfg := core.DefaultConfig()
	mutate(&cfg)
	opts.Cube = &cfg
	return mustBuild(opts.Spec, PolicyCube)
}

// AblationMuThreshold sweeps the WAM's mu_TH on the bursty OLTP
// workload. Low thresholds spend followers too eagerly; 1.0 disables
// follower preference entirely.
func AblationMuThreshold(opts SSDOpts) *AblationResult {
	r := &AblationResult{
		Title: "Ablation: WAM buffer-utilization threshold mu_TH (OLTP)",
		Knob:  "mu_TH",
		Extra: []Series{{Name: "write P90 (ms)"}},
	}
	for _, th := range []float64{0.5, 0.7, 0.9, 0.95, 1.0} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) { c.MuThreshold = th }), workload.OLTP, opts)
		r.point(f2(th), out, float64(out.Result.WriteLat.Percentile(90))/1e6)
	}
	return r
}

// AblationActiveBlocks sweeps the write points per chip. One active
// block strands the WAM once its leaders run out (the paper's stated
// reason for using two); more blocks cost OPM memory.
func AblationActiveBlocks(opts SSDOpts) *AblationResult {
	r := &AblationResult{
		Title: "Ablation: active blocks per chip (OLTP)",
		Knob:  "active blocks",
		Extra: []Series{{Name: "mean tPROG (us)"}},
	}
	for _, n := range []int{1, 2, 4} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) { c.ActiveBlocks = n }), workload.OLTP, opts)
		r.point(d(n), out, out.Stats.MeanTPROGNs()/1e3)
	}
	return r
}

// AblationProgramOrder compares the three static orders under the OPM
// (WAM disabled so only the order varies): MOS should match or beat
// horizontal-first by keeping followers available.
func AblationProgramOrder(opts SSDOpts) *AblationResult {
	r := &AblationResult{
		Title: "Ablation: static program order under OPM, WAM off (Rocks)",
		Knob:  "order",
		Extra: []Series{{Name: "mean tPROG (us)"}},
	}
	for _, o := range []ftl.Order{ftl.OrderHorizontalFirst, ftl.OrderVerticalFirst, ftl.OrderMixed} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) {
			c.UseWAM = false
			c.Order = o
		}), workload.Rocks, opts)
		r.point(o.String(), out, out.Stats.MeanTPROGNs()/1e3)
	}
	return r
}

// AblationORTGranularity compares read-offset cache keyings at
// mid-life. An interesting emergent result of the model: coarse
// entries are competitive whenever the ECC offset tolerance spans the
// spread of per-layer drifts (a mid-range shared value decodes
// everything), while the per-h-layer table pays a cold first-read
// ladder per layer on wide footprints. Per-layer tracking pays off on
// re-read-heavy access (the Fig 14 sweep) and once tolerances shrink
// below the inter-layer drift spread.
func AblationORTGranularity(opts SSDOpts) *AblationResult {
	opts.PECycles, opts.RetentionMonths = 2000, 1
	r := &AblationResult{
		Title: "Ablation: ORT granularity at mid-life (Proxy)",
		Knob:  "granularity",
		Extra: []Series{{Name: "retries/read"}},
	}
	for _, g := range []struct {
		name string
		g    core.ORTGranularity
	}{{"per-h-layer", core.ORTPerLayer}, {"per-block", core.ORTPerBlock}, {"per-chip", core.ORTPerChip}} {
		out := RunCustom(cubeWith(opts, func(c *core.Config) { c.ORT = g.g }), workload.Proxy, opts)
		r.point(g.name, out, out.RetriesPerRead())
	}
	return r
}

// AblationSafetyCheck injects program disturbances (sudden temperature
// surges) and compares the §4.1.4 safety check on and off: without it,
// disturbed word lines keep degraded data and reads pay for it.
func AblationSafetyCheck(opts SSDOpts) *AblationResult {
	opts.PECycles, opts.RetentionMonths = 2000, 6
	const disturbProb = 0.02
	r := &AblationResult{
		Title: "Ablation: safety check under 2% program disturbance (Mongo, aged)",
		Knob:  "safety check",
		Extra: []Series{{Name: "retries/read"}, {Name: "reprograms"}, {Name: "uncorrectable"}},
	}
	for _, on := range []bool{true, false} {
		stk := cubeWith(opts, func(c *core.Config) { c.SafetyCheck = on })
		stk.Dev.SetDisturbProb(disturbProb)
		out := RunCustom(stk, workload.Mongo, opts)
		label := "off"
		if on {
			label = "on"
		}
		r.point(label, out, out.RetriesPerRead(), float64(out.Stats.Reprograms), float64(out.Stats.Uncorrectable))
	}
	return r
}
