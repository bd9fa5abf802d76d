package experiment

import (
	"fmt"

	"cubeftl/internal/workload"
)

// ExtTailResult is the §8 future-work extension: combining the
// PS-aware optimizations with program/erase suspend-resume to build an
// SSD with deterministic read latency. The paper argues the horizontal
// similarity "guarantees accurate I/O response times" and "can be used
// to build SSDs with a highly deterministic latency as a solution to
// the long-tail problem" — this experiment quantifies that on the
// simulated device.
type ExtTailResult struct {
	Configs  []string
	ReadP50  []int64
	ReadP99  []int64
	ReadP999 []int64
	// SpreadNs is P99 - P50 — the width of the latency distribution,
	// the determinism figure of merit.
	SpreadNs []int64
}

// ExtTailLatency runs Rocks at end of life (retry-heavy) under four
// configurations: pageFTL and cubeFTL, each with and without
// suspend-resume. cubeFTL's ORT removes the retry-induced tail;
// suspend removes the write-blocking tail; together the read latency
// approaches deterministic.
func ExtTailLatency(opts SSDOpts) *ExtTailResult {
	opts.PECycles, opts.RetentionMonths = 2000, 12
	res := &ExtTailResult{}
	for _, cfg := range []struct {
		name    string
		kind    PolicyKind
		suspend bool
	}{
		{"pageFTL", PolicyPage, false},
		{"pageFTL+suspend", PolicyPage, true},
		{"cubeFTL", PolicyCube, false},
		{"cubeFTL+suspend", PolicyCube, true},
	} {
		o := opts
		o.SuspendOps = cfg.suspend
		out := RunWorkload(cfg.kind, workload.Rocks, o)
		p50 := out.Result.ReadLat.Percentile(50)
		p99 := out.Result.ReadLat.Percentile(99)
		p999 := out.Result.ReadLat.Percentile(99.9)
		res.Configs = append(res.Configs, cfg.name)
		res.ReadP50 = append(res.ReadP50, p50)
		res.ReadP99 = append(res.ReadP99, p99)
		res.ReadP999 = append(res.ReadP999, p999)
		res.SpreadNs = append(res.SpreadNs, p99-p50)
	}
	return res
}

// Table renders the extension's rows.
func (r *ExtTailResult) Table() *Table {
	t := &Table{
		Title: "§8 extension: deterministic read latency (Rocks at end of life)",
		Cols:  []string{"configuration", "read p50 (ms)", "read p99 (ms)", "read p99.9 (ms)", "p99-p50 (ms)"},
	}
	for i, c := range r.Configs {
		t.Rows = append(t.Rows, []string{
			c,
			fmt.Sprintf("%.3f", float64(r.ReadP50[i])/1e6),
			fmt.Sprintf("%.3f", float64(r.ReadP99[i])/1e6),
			fmt.Sprintf("%.3f", float64(r.ReadP999[i])/1e6),
			fmt.Sprintf("%.3f", float64(r.SpreadNs[i])/1e6),
		})
	}
	t.Notes = append(t.Notes,
		"ORT reuse removes the retry tail; suspend-resume removes the write-blocking tail")
	return t
}
