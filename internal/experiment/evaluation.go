package experiment

import (
	"fmt"

	"cubeftl/internal/ftl"
	"cubeftl/internal/metrics"
	"cubeftl/internal/stack"
	"cubeftl/internal/workload"
)

// PolicyKind names the FTL flavors under evaluation.
type PolicyKind string

// The evaluated FTLs (§6.1, §6.3).
const (
	PolicyPage      PolicyKind = "pageFTL"
	PolicyVert      PolicyKind = "vertFTL"
	PolicyCube      PolicyKind = "cubeFTL"
	PolicyCubeMinus PolicyKind = "cubeFTL-"
	// PolicyIsp is the §7 related-work baseline (Pan et al. [31]):
	// wear-keyed ISPP step scaling, PS-unaware.
	PolicyIsp PolicyKind = "ispFTL"
)

// EvalPolicies is Fig 17's lineup; Fig 18 adds cubeFTL-.
var EvalPolicies = []PolicyKind{PolicyPage, PolicyVert, PolicyCube}

// SSDOpts shapes an SSD evaluation run: the device (its FTL is the
// policy under test, set per run) and the measured stream. The
// evaluation uses a scaled-down device (fewer blocks per chip) for
// tractable runtimes, the same way the paper capped its platform at
// 32 GB "for fast evaluation".
type SSDOpts struct {
	stack.Spec
	Requests   int
	QueueDepth int
}

// DefaultSSDOpts returns the evaluation defaults (fresh state).
func DefaultSSDOpts() SSDOpts {
	return SSDOpts{
		Spec:       stack.Spec{BlocksPerChip: 32, WriteBufferPages: 256, Seed: 1},
		Requests:   12000,
		QueueDepth: 24,
	}
}

// RunOutcome is one (workload, policy) measurement.
type RunOutcome struct {
	Workload string
	Policy   PolicyKind
	Result   workload.Result
	// Stats is the controller's ledger at the end of the run window.
	Stats ftl.Stats
	// Degraded reports whether the device ended the run read-only.
	Degraded bool
}

// IOPS is the outcome's throughput.
func (o RunOutcome) IOPS() float64 { return o.Result.IOPS() }

// RetriesPerRead is the run's read-retry steps per host page read.
func (o RunOutcome) RetriesPerRead() float64 {
	if o.Stats.HostReads == 0 {
		return 0
	}
	return float64(o.Stats.ReadRetries) / float64(o.Stats.HostReads)
}

// mustBuild builds the device running the given FTL, from a spec the
// experiment drivers wrote themselves: they hard-code the FTL and
// retry-mode names.
func mustBuild(s stack.Spec, kind PolicyKind) *stack.Stack {
	s.FTL = string(kind)
	st, err := stack.Build(s)
	if err != nil {
		panic(err)
	}
	return st
}

// RunWorkload builds a fresh SSD, pre-ages it, prefils the workload's
// footprint, then measures the workload under the policy.
func RunWorkload(kind PolicyKind, prof workload.Profile, opts SSDOpts) RunOutcome {
	return RunCustom(mustBuild(opts.Spec, kind), prof, opts)
}

// RunCustom is RunWorkload on a stack the caller built (the ablation
// and fault studies' mutated cube, fault rates or disturbance).
func RunCustom(stk *stack.Stack, prof workload.Profile, opts SSDOpts) RunOutcome {
	ctrl := stk.Ctrl
	gen := workload.NewStream(prof, ctrl.LogicalPages(), opts.Seed+0xABCD)
	workload.Prefill(ctrl, gen.Footprint())
	ctrl.ResetStats()

	res := workload.Run(ctrl, gen, workload.RunConfig{Requests: opts.Requests, QueueDepth: opts.QueueDepth})
	return RunOutcome{
		Workload: prof.Name,
		Policy:   PolicyKind(stk.Spec.FTL),
		Result:   res,
		Stats:    *ctrl.Stats(),
		Degraded: ctrl.Degraded(),
	}
}

// Fig17Result is the normalized-IOPS comparison (Fig 17 (a), (b), (c)
// depending on the aging state in Opts).
type Fig17Result struct {
	Opts      SSDOpts
	Workloads []string
	Policies  []PolicyKind
	// IOPS[workload][policy].
	IOPS [][]float64
	// MeanTPROG[workload][policy] in ns, for the §6.2 audit.
	MeanTPROG [][]float64
}

// NormalizedIOPS returns IOPS[w][p] / IOPS[w][pageFTL].
func (r *Fig17Result) NormalizedIOPS(w, p int) float64 {
	base := r.IOPS[w][0]
	if base == 0 {
		return 0
	}
	return r.IOPS[w][p] / base
}

// MaxGain returns the largest normalized-IOPS gain of policy p over
// pageFTL across workloads, and the workload achieving it.
func (r *Fig17Result) MaxGain(p int) (float64, string) {
	best, name := 0.0, ""
	for w := range r.Workloads {
		if g := r.NormalizedIOPS(w, p) - 1; g > best {
			best, name = g, r.Workloads[w]
		}
	}
	return best, name
}

// Fig17 measures IOPS for the six workloads under the three FTLs at the
// aging state in opts (use PE=0/Ret=0 for (a), 2K/1mo for (b), 2K/1yr
// for (c)).
func Fig17(opts SSDOpts) *Fig17Result {
	res := &Fig17Result{Opts: opts, Policies: EvalPolicies}
	for _, prof := range workload.All {
		res.Workloads = append(res.Workloads, prof.Name)
		var iops, tprog []float64
		for _, kind := range EvalPolicies {
			out := RunWorkload(kind, prof, opts)
			iops = append(iops, out.IOPS())
			tprog = append(tprog, out.Stats.MeanTPROGNs())
		}
		res.IOPS = append(res.IOPS, iops)
		res.MeanTPROG = append(res.MeanTPROG, tprog)
	}
	return res
}

// Table renders Fig 17's bars (IOPS normalized over pageFTL).
func (r *Fig17Result) Table() *Table {
	label := "fresh (0K P/E, no retention)"
	if r.Opts.PECycles > 0 {
		label = fmt.Sprintf("%dK P/E + %.0f-month retention", r.Opts.PECycles/1000, r.Opts.RetentionMonths)
	}
	t := &Table{
		Title: "Fig 17: normalized IOPS, " + label,
		Cols:  []string{"workload"},
	}
	for _, p := range r.Policies {
		t.Cols = append(t.Cols, string(p))
	}
	for w, name := range r.Workloads {
		row := []string{name}
		for p := range r.Policies {
			row = append(row, f3(r.NormalizedIOPS(w, p)))
		}
		t.Rows = append(t.Rows, row)
	}
	for p := 1; p < len(r.Policies); p++ {
		g, name := r.MaxGain(p)
		t.Notes = append(t.Notes, fmt.Sprintf("%s max gain over pageFTL: +%.0f%% (%s)",
			r.Policies[p], 100*g, name))
	}
	return t
}

// Fig18Result is the Rocks latency-CDF comparison (Fig 18), fresh state,
// four FTLs including cubeFTL-.
type Fig18Result struct {
	Policies []PolicyKind
	// Write and read latency CDFs per policy, on the standard
	// percentile grid.
	WriteCDF [][]metrics.CDFPoint
	ReadCDF  [][]metrics.CDFPoint
	// Headline percentiles (ns).
	WriteP90 []int64
	WriteP80 []int64
	ReadP90  []int64
}

// Fig18 runs Rocks on the fresh device under the four FTLs and collects
// per-request latency CDFs.
func Fig18(opts SSDOpts) *Fig18Result {
	res := &Fig18Result{Policies: []PolicyKind{PolicyPage, PolicyVert, PolicyCubeMinus, PolicyCube}}
	for _, kind := range res.Policies {
		out := RunWorkload(kind, workload.Rocks, opts)
		res.WriteCDF = append(res.WriteCDF, out.Result.WriteLat.CDF(metrics.StandardPercentiles))
		res.ReadCDF = append(res.ReadCDF, out.Result.ReadLat.CDF(metrics.StandardPercentiles))
		res.WriteP90 = append(res.WriteP90, out.Result.WriteLat.Percentile(90))
		res.WriteP80 = append(res.WriteP80, out.Result.WriteLat.Percentile(80))
		res.ReadP90 = append(res.ReadP90, out.Result.ReadLat.Percentile(90))
	}
	return res
}

// Table renders Fig 18's CDF series.
func (r *Fig18Result) Table() *Table {
	t := &Table{
		Title: "Fig 18: Rocks latency CDFs (fresh state), write | read, ms",
		Cols:  []string{"percentile"},
	}
	for _, p := range r.Policies {
		t.Cols = append(t.Cols, string(p)+" w", string(p)+" r")
	}
	for i, pt := range r.WriteCDF[0] {
		row := []string{fmt.Sprintf("%.1f", pt.Frac*100)}
		for pi := range r.Policies {
			row = append(row,
				fmt.Sprintf("%.3f", float64(r.WriteCDF[pi][i].Value)/1e6),
				fmt.Sprintf("%.3f", float64(r.ReadCDF[pi][i].Value)/1e6))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("write P90 (ms): page %.2f vert %.2f cube- %.2f cube %.2f (paper: page 1.10, cube 0.72)",
			float64(r.WriteP90[0])/1e6, float64(r.WriteP90[1])/1e6,
			float64(r.WriteP90[2])/1e6, float64(r.WriteP90[3])/1e6))
	return t
}

// TprogAuditResult is the §6.2 mean-tPROG reduction audit: vertFTL ~8%,
// cubeFTL ~30% (on follower word lines; ~22% overall with leaders).
type TprogAuditResult struct {
	PageNs, VertNs, CubeNs float64
}

// VertReduction is vertFTL's mean tPROG reduction over pageFTL.
func (r *TprogAuditResult) VertReduction() float64 { return 1 - r.VertNs/r.PageNs }

// CubeReduction is cubeFTL's mean tPROG reduction over pageFTL.
func (r *TprogAuditResult) CubeReduction() float64 { return 1 - r.CubeNs/r.PageNs }

// TprogAudit measures mean program latencies under a write-heavy stream.
func TprogAudit(opts SSDOpts) *TprogAuditResult {
	res := &TprogAuditResult{}
	for _, kind := range EvalPolicies {
		out := RunWorkload(kind, workload.OLTP, opts)
		switch kind {
		case PolicyPage:
			res.PageNs = out.Stats.MeanTPROGNs()
		case PolicyVert:
			res.VertNs = out.Stats.MeanTPROGNs()
		case PolicyCube:
			res.CubeNs = out.Stats.MeanTPROGNs()
		}
	}
	return res
}

// Table renders the audit.
func (r *TprogAuditResult) Table() *Table {
	return &Table{
		Title: "§6.2 audit: mean tPROG by FTL (OLTP)",
		Cols:  []string{"FTL", "mean tPROG (us)", "reduction"},
		Rows: [][]string{
			{"pageFTL", f1(r.PageNs / 1000), "-"},
			{"vertFTL", f1(r.VertNs / 1000), fmt.Sprintf("%.1f%%", 100*r.VertReduction())},
			{"cubeFTL", f1(r.CubeNs / 1000), fmt.Sprintf("%.1f%%", 100*r.CubeReduction())},
		},
		Notes: []string{"paper: vertFTL ~8%, cubeFTL ~30% on follower WLs (leaders run at default speed)"},
	}
}
