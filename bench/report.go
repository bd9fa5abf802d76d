package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// paperOLTPGainPct is the paper's cube-over-page IOPS gain on OLTP
// (Fig 17a), the reference the model's gain is printed beside.
const paperOLTPGainPct = 48.0

func specOf(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// report prints every metric by name with its unit.
func report(w io.Writer, res *result, c config) {
	st := res.Stamp
	dirty := ""
	if st.Dirty {
		dirty = "+dirty"
	}
	fmt.Fprintf(w, "bench: rev %s%s  %s  nproc %d  GOMAXPROCS %d  seed %d  %gs in %d repetitions per workload  %s\n",
		st.GitRev, dirty, st.GoVersion, st.NProc, st.GOMAXPROCS, st.Seed, st.Seconds, st.Reps, st.When)
	for _, wr := range res.Workloads {
		spec, _ := specOf(wr.Name)
		fmt.Fprintf(w, "\n== %s  [%s]\n   %s\n", wr.Name, spec.loop, spec.why)
		verdict := "all correctness checks passed"
		if !wr.Correct {
			verdict = "FAILED: " + strings.Join(wr.Notes, "; ")
		}
		fmt.Fprintf(w, "   attempted %d  failed %d  sim_digest %s  %s\n", wr.Attempted, wr.Failed, orDash(wr.Digest), verdict)
		if wr.EndToEnd != nil {
			tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
			fmt.Fprintln(tw, "   end-to-end\tmedian\tmin\tmax\tspread\tbound\tn\tunit\t")
			for _, m := range endToEnd {
				s, ok := wr.EndToEnd[m.name]
				if !ok {
					continue
				}
				noise := fmt.Sprintf("%.2f%%", s.SpreadPct)
				if s.SpreadPct > 100*m.bound && m.bound > 0 {
					noise += " unresolved"
				}
				fmt.Fprintf(tw, "   %s\t%.6g\t%.6g\t%.6g\t%s\t%g%%\t%d\t%s\t\n",
					m.name, s.Median, s.Min, s.Max, noise, 100*m.bound, len(s.Values), m.unit)
			}
			tw.Flush()
			if g, ok := wr.EndToEnd[gainVsPage]; ok {
				fmt.Fprintf(w, "   cube over page on OLTP: model %+.1f%%, paper %+.0f%% (Fig 17a): model error %+.1f points\n",
					g.Median, paperOLTPGainPct, g.Median-paperOLTPGainPct)
			}
			for _, r := range wr.Reps {
				if n, ok := r.Metrics["wall_rtt_samples"]; ok && r.Mode == modeTimed {
					fmt.Fprintf(w, "   rtt: %d samples; highest percentile with 10 samples beyond it: p%g = %.1f us\n",
						int(n), r.Metrics["wall_rtt_top_pct"], r.Metrics["wall_rtt_top_us"])
					break
				}
			}
		}
	}
	var layered []*workloadResult
	for _, wr := range res.Workloads {
		if wr.PerLayer != nil {
			layered = append(layered, wr)
		}
	}
	if len(layered) == 0 {
		return
	}
	fmt.Fprintf(w, "\n== per layer (traced pass and isolated calls; informational, none gated)\n")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "   metric\tunit\t")
	for _, wr := range layered {
		fmt.Fprintf(tw, "%s\t", wr.Name)
	}
	fmt.Fprintln(tw)
	for _, m := range driverPerLayer() {
		fmt.Fprintf(tw, "   %s\t%s\t", m.name, m.unit)
		for _, wr := range layered {
			fmt.Fprintf(tw, "%.5g\t", wr.PerLayer[m.name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintf(w, "   harness spans: %s/trace-<workload>.json\n", c.outDir)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := new(result)
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's new median against its old one. A change
// counts as worse only when it exceeds both the metric's bound and the
// run-to-run spread of either side; when the spread itself exceeds the
// bound the comparison cannot tell, and says so.
func judge(m metricSpec, old, cur stat) (worsePct float64, verdict string) {
	delta := cur.Median - old.Median
	if m.better == "higher" {
		delta = -delta
	}
	base := old.Median
	if base < 0 {
		base = -base
	}
	switch {
	case base != 0:
		worsePct = 100 * delta / base
	case delta > 0:
		worsePct = 100 // from zero: any increase is a full regression
	}
	spread := max(old.SpreadPct, cur.SpreadPct)
	switch {
	case worsePct > 100*m.bound && worsePct > spread:
		return worsePct, verdictWorse
	case spread > 100*m.bound && m.bound > 0:
		return worsePct, verdictUnresolved
	}
	return worsePct, verdictOK
}

// compareFiles prints, per workload and end-to-end metric, the old and
// new medians, the change against its base, the bound and a verdict.
func compareFiles(w io.Writer, oldPath, newPath string) (anyWorse bool, err error) {
	old, err := loadResult(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := loadResult(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s rev %s seed %d   new: %s rev %s seed %d\n",
		oldPath, old.Stamp.GitRev, old.Stamp.Seed, newPath, cur.Stamp.GitRev, cur.Stamp.Seed)
	oldBy := map[string]*workloadResult{}
	for _, wr := range old.Workloads {
		oldBy[wr.Name] = wr
	}
	counts := map[string]int{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tworse by\tof base\tbound\tverdict\t")
	for _, wr := range cur.Workloads {
		ow, ok := oldBy[wr.Name]
		if !ok || ow.EndToEnd == nil || wr.EndToEnd == nil {
			continue
		}
		if ow.Digest != wr.Digest {
			fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\t\t\tdiffers\t\n", wr.Name, orDash(ow.Digest), orDash(wr.Digest))
		}
		for _, m := range endToEnd {
			o, ok1 := ow.EndToEnd[m.name]
			n, ok2 := wr.EndToEnd[m.name]
			if !ok1 || !ok2 {
				continue
			}
			pct, verdict := judge(m, o, n)
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.6g %s\t%g%%\t%s\t\n",
				wr.Name, m.name, o.Median, n.Median, pct, o.Median, m.unit, 100*m.bound, verdict)
		}
	}
	tw.Flush()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s: %d  ", k, counts[k])
	}
	fmt.Fprintln(w)
	return counts[verdictWorse] > 0, nil
}
