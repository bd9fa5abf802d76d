package experiment

import (
	"fmt"

	"cubeftl/internal/workload"
)

// ExtRetryResult is the optimized read-retry pipeline study (DESIGN.md
// §15): baseline / ORT / ORT+PR / ORT+PR+AR read tail latencies on aged
// devices at the paper's two retry-rate regimes (~30%: 2K P/E + 1
// month; ~90%: 2K P/E + 12 months).
type ExtRetryResult struct {
	Regimes []string // row-group labels ("~30% retry", "~90% retry")
	Modes   []string // column labels (the -retry-mode names)

	// [regime][mode] read percentiles (ns) and retry counts.
	ReadP50 [][]int64
	ReadP99 [][]int64
	Retries [][]int64
}

// ExtRetryModes is the evaluated lineup, in increasing optimization
// order. All four run cubeFTL so the write path is held constant and
// only the read-retry stack varies.
var ExtRetryModes = []string{"baseline", "ort", "ort-pr", "ort-pr-ar"}

// ExtRetryPipeline runs the read-heavy Rocks workload under the four
// retry modes at both aged regimes.
func ExtRetryPipeline(opts SSDOpts) *ExtRetryResult {
	res := &ExtRetryResult{Modes: ExtRetryModes}
	for _, regime := range []struct {
		label  string
		months float64
	}{
		{"~30% retry (2K P/E + 1 mo)", 1},
		{"~90% retry (2K P/E + 12 mo)", 12},
	} {
		var p50s, p99s, retries []int64
		for _, mode := range ExtRetryModes {
			o := opts
			o.PECycles, o.RetentionMonths = 2000, regime.months
			o.RetryMode = mode
			out := RunWorkload(PolicyCube, workload.Rocks, o)
			p50s = append(p50s, out.Result.ReadLat.Percentile(50))
			p99s = append(p99s, out.Result.ReadLat.Percentile(99))
			retries = append(retries, out.Stats.ReadRetries)
		}
		res.Regimes = append(res.Regimes, regime.label)
		res.ReadP50 = append(res.ReadP50, p50s)
		res.ReadP99 = append(res.ReadP99, p99s)
		res.Retries = append(res.Retries, retries)
	}
	return res
}

// P99Gain returns 1 - p99(ort-pr-ar)/p99(ort) for a regime row: the
// tail-latency win of the full pipeline over plain ORT.
func (r *ExtRetryResult) P99Gain(regime int) float64 {
	ort := float64(r.ReadP99[regime][1])
	if ort == 0 {
		return 0
	}
	return 1 - float64(r.ReadP99[regime][3])/ort
}

// Table renders the study.
func (r *ExtRetryResult) Table() *Table {
	t := &Table{
		Title: "§15 extension: optimized read-retry pipeline (Rocks, aged device)",
		Cols:  []string{"regime", "mode", "read p50 (ms)", "read p99 (ms)", "retries"},
	}
	for gi, regime := range r.Regimes {
		for mi, mode := range r.Modes {
			t.Rows = append(t.Rows, []string{
				regime, mode,
				fmt.Sprintf("%.3f", float64(r.ReadP50[gi][mi])/1e6),
				fmt.Sprintf("%.3f", float64(r.ReadP99[gi][mi])/1e6),
				fmt.Sprintf("%d", r.Retries[gi][mi]),
			})
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: ort-pr-ar read p99 %.1f%% below plain ort",
			regime, 100*r.P99Gain(gi)))
	}
	t.Notes = append(t.Notes,
		"PR overlaps attempt N+1's sense with attempt N's decode; AR ends high-margin senses early")
	return t
}
