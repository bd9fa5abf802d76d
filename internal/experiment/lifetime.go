package experiment

import (
	"fmt"

	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// LifetimeCombo is one policy mix of the lifetime figure.
type LifetimeCombo struct {
	Label     string
	Refresh   bool
	WearLevel bool
}

// LifetimeCombos is the lifetime figure's lineup: every combination of
// the two aging countermeasures, all running cubeFTL so only the
// lifetime policies vary.
var LifetimeCombos = []LifetimeCombo{
	{"baseline", false, false},
	{"+refresh", true, false},
	{"+WL", false, true},
	{"+refresh+WL", true, true},
}

// LifetimeAges is the simulated-age sweep in months (the fleet-
// replacement horizon: fresh to three years).
var LifetimeAges = []float64{0, 12, 24, 36}

// ExtLifetimeResult is the lifetime study (DESIGN.md §17): one
// long-lived device per policy combination walked through the age
// sweep, with the read-heavy Rocks workload measured at every point.
// Each measurement window covers the year's aging jump (including any
// scrub burst it triggers) plus the measured run, so the per-cause WAF
// columns price the policies honestly.
type ExtLifetimeResult struct {
	Combos     []string  // row-group labels
	AgesMonths []float64 // column sweep

	// [combo][age point] measurements.
	IOPS          [][]float64
	ReadP99       [][]int64 // ns
	WAFFactor     [][]float64
	RefreshPages  [][]int64 // pages moved by retention refresh in the window
	WLPages       [][]int64 // pages moved by static wear leveling in the window
	GrownBad      [][]int   // cumulative grown-bad blocks retired
	WearSpread    [][]int   // erase-count spread (max-min) after the window
	Uncorrectable [][]int64 // uncorrectable reads in the window
}

// newAgedDevice builds one combo's long-lived device: the stack
// survives across age points so translation state, wear, and bad blocks
// carry forward the way a real device's do.
func newAgedDevice(opts SSDOpts, combo LifetimeCombo) *stack.Stack {
	opts.Refresh, opts.WearLevel = combo.Refresh, combo.WearLevel
	return mustBuild(opts.Spec, PolicyCube)
}

// prefillRocks seeds the device with the workload's footprint so there
// is data at rest for retention aging to act on.
func prefillRocks(d *stack.Stack, opts SSDOpts) {
	gen := workload.NewStream(workload.Rocks, d.Ctrl.LogicalPages(), opts.Seed+0xABCD)
	workload.Prefill(d.Ctrl, gen.Footprint())
}

// measureRocks runs the workload and returns the host-visible result.
func measureRocks(d *stack.Stack, opts SSDOpts) workload.Result {
	gen := workload.NewStream(workload.Rocks, d.Ctrl.LogicalPages(), opts.Seed+0xABCD)
	return workload.Run(d.Ctrl, gen, workload.RunConfig{
		Requests: opts.Requests, QueueDepth: opts.QueueDepth,
	})
}

// ExtLifetime walks one device per policy combination through the age
// sweep, measuring Rocks at each point.
func ExtLifetime(opts SSDOpts) *ExtLifetimeResult {
	res := &ExtLifetimeResult{AgesMonths: LifetimeAges}
	for _, combo := range LifetimeCombos {
		res.Combos = append(res.Combos, combo.Label)
		d := newAgedDevice(opts, combo)
		prefillRocks(d, opts)

		var iops, wafs []float64
		var p99s, refresh, wl, uncorr []int64
		var grown, spread []int
		prev := 0.0
		for _, age := range res.AgesMonths {
			d.Ctrl.ResetStats()
			if age > prev {
				d.Age(age - prev)
				prev = age
			}
			r := measureRocks(d, opts)
			st := d.Ctrl.Stats()
			waf := d.Ctrl.WAF()
			lo, hi := d.Ctrl.WearSpread()

			iops = append(iops, r.IOPS())
			p99s = append(p99s, r.ReadLat.Percentile(99))
			wafs = append(wafs, waf.Factor)
			refresh = append(refresh, st.RefreshPages)
			wl = append(wl, st.WLPages)
			grown = append(grown, int(st.RetiredBlocks))
			spread = append(spread, hi-lo)
			uncorr = append(uncorr, st.Uncorrectable)
		}
		res.IOPS = append(res.IOPS, iops)
		res.ReadP99 = append(res.ReadP99, p99s)
		res.WAFFactor = append(res.WAFFactor, wafs)
		res.RefreshPages = append(res.RefreshPages, refresh)
		res.WLPages = append(res.WLPages, wl)
		res.GrownBad = append(res.GrownBad, grown)
		res.WearSpread = append(res.WearSpread, spread)
		res.Uncorrectable = append(res.Uncorrectable, uncorr)
	}
	return res
}

// P99RatioVsFresh returns read p99 at the oldest age point over the
// same combo's fresh p99 — the degradation the policies are meant to
// contain.
func (r *ExtLifetimeResult) P99RatioVsFresh(combo int) float64 {
	fresh := float64(r.ReadP99[combo][0])
	if fresh == 0 {
		return 0
	}
	return float64(r.ReadP99[combo][len(r.AgesMonths)-1]) / fresh
}

// comboIndex finds a combo row by label, or -1.
func (r *ExtLifetimeResult) comboIndex(label string) int {
	for i, c := range r.Combos {
		if c == label {
			return i
		}
	}
	return -1
}

// Table renders the lifetime figure.
func (r *ExtLifetimeResult) Table() *Table {
	t := &Table{
		Title: "§17 extension: lifetime policies over simulated age (Rocks)",
		Cols: []string{"policy", "age (mo)", "IOPS", "read p99 (ms)", "WAF",
			"refresh pg", "WL pg", "grown bad", "PE spread", "uncorr"},
	}
	for ci, combo := range r.Combos {
		for ai, age := range r.AgesMonths {
			t.Rows = append(t.Rows, []string{
				combo,
				fmt.Sprintf("%.0f", age),
				f1(r.IOPS[ci][ai]),
				fmt.Sprintf("%.3f", float64(r.ReadP99[ci][ai])/1e6),
				f3(r.WAFFactor[ci][ai]),
				fmt.Sprintf("%d", r.RefreshPages[ci][ai]),
				fmt.Sprintf("%d", r.WLPages[ci][ai]),
				fmt.Sprintf("%d", r.GrownBad[ci][ai]),
				fmt.Sprintf("%d", r.WearSpread[ci][ai]),
				fmt.Sprintf("%d", r.Uncorrectable[ci][ai]),
			})
		}
	}
	for ci, combo := range r.Combos {
		t.Notes = append(t.Notes, fmt.Sprintf("%s: read p99 at %.0fmo = %.2fx fresh",
			combo, r.AgesMonths[len(r.AgesMonths)-1], r.P99RatioVsFresh(ci)))
	}
	if both := r.comboIndex("+refresh+WL"); both >= 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"contract: +refresh+WL holds aged read p99 within 2x fresh (measured %.2fx)",
			r.P99RatioVsFresh(both)))
	}
	return t
}
