package experiment

import (
	"fmt"

	"cubeftl/internal/workload"
)

// RelWorkResult compares cubeFTL against the related-work baselines the
// paper discusses in §7 — pageFTL (none), ispFTL (Pan et al. [31]:
// wear-keyed ISPP-step scaling) and vertFTL (Hung et al. [13]: static
// V_Final trim) — across the drive's lifetime. The paper's argument is
// that PS-unaware acceleration either fades with wear (ispFTL's step
// must shrink back as margins close) or is stuck at worst-case
// conservatism (vertFTL), while cubeFTL's run-time monitoring adapts.
type RelWorkResult struct {
	Policies []PolicyKind
	States   []string
	// IOPS[state][policy], normalized over pageFTL per state.
	Norm [][]float64
	// MeanTPROG[state][policy] in us.
	MeanTPROG [][]float64
	// RetriesPerRead[state][policy].
	RetriesPerRead [][]float64
}

// RelWork runs OLTP (write-heavy, where program acceleration matters)
// at the fresh and end-of-life states under the four FTLs.
func RelWork(opts SSDOpts) *RelWorkResult {
	res := &RelWorkResult{
		Policies: []PolicyKind{PolicyPage, PolicyIsp, PolicyVert, PolicyCube},
	}
	states := []struct {
		label string
		pe    int
		ret   float64
	}{
		{"fresh", 0, 0},
		{"2K+1yr", 2000, 12},
	}
	for _, st := range states {
		o := opts
		o.PECycles, o.RetentionMonths = st.pe, st.ret
		var iops, tprog, rpr []float64
		for _, kind := range res.Policies {
			out := RunWorkload(kind, workload.OLTP, o)
			iops = append(iops, out.IOPS())
			tprog = append(tprog, out.Stats.MeanTPROGNs()/1e3)
			rpr = append(rpr, out.RetriesPerRead())
		}
		norm := make([]float64, len(iops))
		for i := range iops {
			norm[i] = iops[i] / iops[0]
		}
		res.States = append(res.States, st.label)
		res.Norm = append(res.Norm, norm)
		res.MeanTPROG = append(res.MeanTPROG, tprog)
		res.RetriesPerRead = append(res.RetriesPerRead, rpr)
	}
	return res
}

// IspFadeFactor is ispFTL's normalized-IOPS loss from fresh to EOL —
// the paper's "efficiency quite limited" critique, quantified.
func (r *RelWorkResult) IspFadeFactor() float64 {
	return r.Norm[0][1] - r.Norm[1][1]
}

// Table renders the comparison.
func (r *RelWorkResult) Table() *Table {
	t := &Table{
		Title: "§7 related work: normalized IOPS across the lifetime (OLTP)",
		Cols:  []string{"state"},
	}
	for _, p := range r.Policies {
		t.Cols = append(t.Cols, string(p), "tPROG us", "retries/rd")
	}
	for s, label := range r.States {
		row := []string{label}
		for p := range r.Policies {
			row = append(row, f3(r.Norm[s][p]), f1(r.MeanTPROG[s][p]), f2(r.RetriesPerRead[s][p]))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("ispFTL's gain fades by %.2f from fresh to EOL (its step schedule must decay with wear)",
			r.IspFadeFactor()),
		"cubeFTL adapts at run time: its gain grows with age (read-retry reuse)")
	return t
}
