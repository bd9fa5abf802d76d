package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// Repetition modes. Every mode runs in a child process of its own, so
// heap, GC state and peak RSS belong to that repetition alone.
const (
	modeTimed  = "timed"  // end-to-end numbers; telemetry and profiling off
	modeTraced = "traced" // per-layer numbers; never used for end-to-end
	modeVerify = "verify" // 1/10 length with the data-integrity oracle on
	modeTwin   = "twin"   // oltp-burst on the page FTL, for the paper's gain
)

// rep is one repetition's report, printed by the child as one JSON line.
type rep struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"`
	Seed      uint64             `json:"seed"`
	Attempted int64              `json:"attempted"` // host operations requested
	Failed    int64              `json:"failed"`    // requested but refused, failed or never completed
	Requests  int64              `json:"requests"`  // completed in the timed section
	RunS      float64            `json:"run_s"`     // wall of the timed section
	Digest    string             `json:"sim_digest,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"` // failed correctness checks
}

func (r *rep) failf(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// span is one harness-side interval around a call into the program.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"` // since the repetition began
	EndUs   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the repetition ends. One log
// serves one goroutine; concurrent clients fork their own and the owner
// merges them back once they have stopped.
type spanLog struct {
	t0    time.Time
	ids   *atomic.Int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), ids: new(atomic.Int64)} }

func (l *spanLog) fork() *spanLog { return &spanLog{t0: l.t0, ids: l.ids} }

func (l *spanLog) merge(o *spanLog) { l.spans = append(l.spans, o.spans...) }

// do runs fn inside a span and returns the span's wall duration.
func (l *spanLog) do(parent int, name string, fn func(id int)) time.Duration {
	id := int(l.ids.Add(1))
	start := time.Since(l.t0)
	fn(id)
	end := time.Since(l.t0)
	l.spans = append(l.spans, span{id, parent, name, start.Microseconds(), end.Microseconds()})
	return end - start
}

func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].StartUs < l.spans[j].StartUs })
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// section measures one timed section from outside the program: wall,
// process CPU, heap allocation and GC work, the machine's speed on
// either side of it, and under modeTraced a CPU profile folded by layer.
type section struct {
	ctx  *runCtx
	t0   time.Time
	cpu0 float64
	ms0  runtime.MemStats
	gc0  float64
	prof bytes.Buffer
	// Reference kernel cost just before the section, ns per operation.
	refWall, refCPU float64
}

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// processCPUSeconds is the user+system CPU time this process has used,
// every thread included.
func processCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6, nil
}

func startSection(c *runCtx) (*section, error) {
	s := &section{ctx: c}
	var err error
	if s.refWall, s.refCPU, err = calibrate(c.size); err != nil {
		return nil, err
	}
	runtime.GC() // neither set-up nor calibration garbage is the timed section's
	if c.traced() {
		if err := pprof.StartCPUProfile(&s.prof); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&s.ms0)
	s.gc0 = gcCPUSeconds()
	if s.cpu0, err = processCPUSeconds(); err != nil {
		return nil, err
	}
	s.t0 = time.Now()
	return s, nil
}

// stop ends the section and writes the process-level metrics for
// requests completed host requests into r.
func (s *section) stop(r *rep, requests int64) error {
	wall := time.Since(s.t0)
	cpu, err := processCPUSeconds()
	if err != nil {
		return err
	}
	cpu -= s.cpu0
	gc := gcCPUSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if s.ctx.traced() {
		pprof.StopCPUProfile()
	}
	refWall, refCPU, err := calibrate(s.ctx.size)
	if err != nil {
		return err
	}
	refWall, refCPU = (refWall+s.refWall)/2, (refCPU+s.refCPU)/2
	if requests <= 0 {
		return fmt.Errorf("timed section completed no requests")
	}
	n := float64(requests)
	r.Requests = requests
	r.RunS = wall.Seconds()
	m := r.Metrics
	m["wall_req_per_s"] = n / wall.Seconds()
	m["cpu_us_per_req"] = cpu * 1e6 / n
	// CPU cost and set-up time at reference speed (calib.go): a slow
	// machine inflates the reference's cost and the raw times alike.
	m["machine.ref_wall_ns"], m["machine.ref_cpu_ns"] = refWall, refCPU
	m["norm_cpu_us_per_req"] = m["cpu_us_per_req"] * refNominalCPUNs / refCPU
	m["setup_s"] = m["setup_wall_s"] * refNominalWallNs / refWall
	m["alloc_bytes_per_req"] = float64(ms.TotalAlloc-s.ms0.TotalAlloc) / n
	m["allocs_per_req"] = float64(ms.Mallocs-s.ms0.Mallocs) / n
	m["goruntime.gc_cycles"] = float64(ms.NumGC - s.ms0.NumGC)
	if cpu > 0 {
		m["goruntime.gc_cpu_frac"] = (gc - s.gc0) / cpu
	}
	if s.ctx.traced() {
		folded, err := foldProfile(s.prof.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		for layer, pct := range folded {
			m[layer] = pct
		}
	}
	return nil
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// digest fingerprints every simulated statistic of a repetition, so
// "the simulator computed the same thing" is a one-line comparison.
func digest(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v|", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// resolvablePercentile returns the highest of the usual percentiles
// that still has at least ten samples beyond it.
func resolvablePercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
