package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one repetition. The longest takes about five
// seconds here; four hung ones must still end inside the driver's 180 s.
const childTimeout = 40 * time.Second

// isolatedBenchtime bounds each isolated-call measurement.
const isolatedBenchtime = 20 * time.Millisecond

// stat summarises one end-to-end metric over a workload's timed
// repetitions.
type stat struct {
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"` // per repetition, in run order
	// SpreadPct is (max-min)/median: the run-to-run noise a difference
	// has to exceed before it means anything.
	SpreadPct float64 `json:"spread_pct"`
}

func newStat(values []float64) stat {
	s := stat{Median: median(values), Min: values[0], Max: values[0], Values: values}
	for _, v := range values {
		s.Min = min(s.Min, v)
		s.Max = max(s.Max, v)
	}
	if s.Median != 0 {
		s.SpreadPct = 100 * (s.Max - s.Min) / s.Median
	}
	return s
}

type workloadResult struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Notes     []string           `json:"notes,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"sim_digest,omitempty"`
	EndToEnd  map[string]stat    `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Reps      []*rep             `json:"reps"`
}

func (w *workloadResult) failf(format string, args ...any) {
	w.Correct = false
	w.Notes = append(w.Notes, fmt.Sprintf(format, args...))
}

type stamp struct {
	GitRev     string  `json:"git_rev"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	When       string  `json:"when"`
}

type result struct {
	Stamp     stamp             `json:"stamp"`
	Workloads []*workloadResult `json:"workloads"`
}

// gitStamp asks git for the real revision; outside a work tree (the
// driver's checkout is a plain directory) the revision is "unknown".
func gitStamp() (rev string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(bytes.TrimSpace(status)) > 0
}

// harness runs repetitions and folds them into a result. spawn and
// isolated are the seams the tests use to stay in-process and fast.
type harness struct {
	cfg      config
	stderr   io.Writer
	spawn    func(workload, mode string, size float64) (*rep, error)
	isolated func(seed uint64, benchtime time.Duration) (map[string]float64, error)
}

// execChild re-executes this binary for one repetition.
func (h *harness) execChild(workload, mode string, size float64) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload, "-mode", mode,
		"-seed", strconv.FormatUint(h.cfg.seed, 10),
		"-seconds", strconv.FormatFloat(size, 'g', -1, 64), "-out", h.cfg.outDir)
	cmd.Stderr = h.stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", workload, mode, err)
	}
	r := new(rep)
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("%s (%s): child output: %w", workload, mode, err)
	}
	return r, nil
}

func (h *harness) run(w *workloadResult, mode string, size float64) (*rep, error) {
	fmt.Fprintf(h.stderr, "bench: %s %s ...\n", w.Name, mode)
	r, err := h.spawn(w.Name, mode, size)
	if err != nil {
		return nil, err
	}
	w.Reps = append(w.Reps, r)
	w.Attempted += r.Attempted
	w.Failed += r.Failed
	for _, n := range r.Notes {
		w.failf("%s: %s", mode, n)
	}
	if r.Failed != 0 {
		w.failf("%s: %d of %d operations failed", mode, r.Failed, r.Attempted)
	}
	// Every repetition of a simulated workload must compute the same
	// thing, traced or not; the page-FTL twin is a different device.
	if mode == modeTimed || mode == modeTraced {
		switch {
		case w.Digest == "":
			w.Digest = r.Digest
		case r.Digest != w.Digest:
			w.failf("%s: sim_digest %s differs from %s", mode, r.Digest, w.Digest)
		}
	}
	return r, nil
}

// orchestrate runs the selected workloads and passes, prints the
// report, and returns whether every correctness check passed.
func orchestrate(c config, stdout, stderr io.Writer) (bool, error) {
	h := &harness{cfg: c, stderr: stderr, isolated: isolated}
	h.spawn = h.execChild
	res, err := h.measure()
	if err != nil {
		return false, err
	}
	report(stdout, res, c)
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return false, err
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(c.outDir, "result.json"), data, 0o644); err != nil {
		return false, err
	}
	ok := true
	for _, w := range res.Workloads {
		ok = ok && w.Correct
	}
	if c.workload != "" {
		if err := driverLine(stdout, res.Workloads[0], c.trace); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func (h *harness) measure() (*result, error) {
	c := h.cfg
	all := c.workload == ""
	timedPass, tracedPass := all || c.trace == 0, all || c.trace == 1
	rev, dirty := gitStamp()
	res := &result{Stamp: stamp{
		GitRev: rev, Dirty: dirty, GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: c.seed, Seconds: c.seconds, Reps: repsPerRun, When: time.Now().UTC().Format(time.RFC3339),
	}}
	for _, ws := range workloadSpecs {
		if all || ws.name == c.workload {
			res.Workloads = append(res.Workloads, &workloadResult{Name: ws.name, Correct: true})
		}
	}
	size := c.seconds / repsPerRun

	timed := map[string][]*rep{}
	if timedPass {
		// Round-robin across workloads, so slow drift of the machine
		// reaches all of them alike.
		for i := 0; i < repsPerRun; i++ {
			for _, w := range res.Workloads {
				r, err := h.run(w, modeTimed, size)
				if err != nil {
					return nil, err
				}
				timed[w.Name] = append(timed[w.Name], r)
			}
		}
	}
	if tracedPass {
		// The data-integrity oracle rides with the traced pass; every
		// invocation still checks digests, completion and the served audit.
		for _, w := range res.Workloads {
			// served-loopback audits its own writes in every repetition.
			if w.Name == "served-loopback" {
				continue
			}
			if _, err := h.run(w, modeVerify, size); err != nil {
				return nil, err
			}
		}
	}
	var iso map[string]float64
	if tracedPass {
		var err error
		fmt.Fprintln(h.stderr, "bench: isolated calls ...")
		if iso, err = h.isolated(c.seed, isolatedBenchtime); err != nil {
			return nil, err
		}
	}
	for _, w := range res.Workloads {
		if timedPass {
			w.EndToEnd = map[string]stat{}
			for _, m := range endToEnd {
				if !m.appliesTo(w.Name) || m.name == gainVsPage {
					continue
				}
				var values []float64
				for _, r := range timed[w.Name] {
					v, ok := r.Metrics[m.name]
					if !ok {
						return nil, fmt.Errorf("%s: repetition did not report %s", w.Name, m.name)
					}
					values = append(values, v)
				}
				w.EndToEnd[m.name] = newStat(values)
			}
		}
		if !tracedPass {
			continue
		}
		// The traced repetition's untraced twin runs right before it, so
		// machine drift between the two is as small as it can be.
		twin, err := h.run(w, modeTimed, size)
		if err != nil {
			return nil, err
		}
		traced, err := h.run(w, modeTraced, size)
		if err != nil {
			return nil, err
		}
		w.PerLayer = perLayerOf(append(timed[w.Name], twin), traced, iso)
		if hasPageTwin(w.Name) {
			page, err := h.run(w, modeTwin, size)
			if err != nil {
				return nil, err
			}
			gain := 100 * (twin.Metrics["sim_iops"]/page.Metrics["sim_iops"] - 1)
			w.PerLayer[gainVsPage] = gain
			if timedPass {
				w.EndToEnd[gainVsPage] = newStat([]float64{gain})
			}
		}
	}
	return res, nil
}

// perLayerOf assembles one workload's per-layer metrics: counts and
// shares from the traced repetition, client-side and process-level
// numbers from the untraced ones (the last of which is the traced
// repetition's twin), the isolated calls, and the cost of tracing.
func perLayerOf(untraced []*rep, traced *rep, iso map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range driverPerLayer() {
		switch m.from {
		case fromIsolated:
			out[m.name] = iso[m.name]
		case fromUntraced:
			var v []float64
			for _, r := range untraced {
				v = append(v, r.Metrics[m.name])
			}
			out[m.name] = median(v)
		default:
			out[m.name] = traced.Metrics[m.name]
		}
	}
	// Fixed work takes longer when traced; fixed time completes less.
	// Either way the rate ratio is the cost of the traced pass.
	if rate := traced.Metrics["wall_req_per_s"]; rate > 0 {
		twin := untraced[len(untraced)-1]
		out["telemetry.wall_overhead_pct"] = 100 * (twin.Metrics["wall_req_per_s"]/rate - 1)
	}
	return out
}

// driverLine prints the machine-readable result the builder's contract
// asks for as the last line of standard output.
func driverLine(w io.Writer, wr *workloadResult, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 0 {
		for _, m := range endToEnd {
			if m.gated {
				metrics[m.name] = value{wr.EndToEnd[m.name].Median, m.unit}
			}
		}
	} else {
		for _, m := range driverPerLayer() {
			metrics[m.name] = value{wr.PerLayer[m.name], m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
