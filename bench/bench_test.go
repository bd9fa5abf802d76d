package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesAndLimits(t *testing.T) {
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	gated := 0
	for _, m := range endToEnd {
		if m.gated {
			gated++
		}
	}
	if gated < 1 || gated > 16 {
		t.Errorf("%d gated end-to-end metrics, want 1..16", gated)
	}
	if n := len(driverPerLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, want <= 128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check("workload", w.name)
		if _, ok := runners[w.name]; !ok {
			t.Errorf("workload %q has no runner", w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.name)
		}
	}
	if len(runners) != len(workloadSpecs) {
		t.Errorf("%d runners for %d workload specs", len(runners), len(workloadSpecs))
	}
	gatedSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		check("metric", m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q: unit %q does not match %v", m.name, m.unit, unitRE)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %q: better = %q", m.name, m.better)
		}
		if m.bound < 0 || m.bound > 0.25 {
			t.Errorf("metric %q: bound %g outside [0, 0.25]", m.name, m.bound)
		}
		if m.gated && m.on != nil {
			t.Errorf("metric %q is gated but not defined on every workload", m.name)
		}
		if m.gated && m.name == "setup_s" && m.unit == "s" && m.better == "lower" {
			gatedSetup = true
		}
		for _, w := range m.on {
			if _, ok := runners[w]; !ok {
				t.Errorf("metric %q applies to unknown workload %q", m.name, w)
			}
		}
	}
	if !gatedSetup {
		t.Error("setup_s must be a gated end-to-end metric in seconds, lower is better")
	}
}

// benchmarkFile is BENCHMARK.json as the builder's contract shapes it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadSpecs {
		f.Workloads = append(f.Workloads, fileWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		if m.gated {
			f.EndToEnd = append(f.EndToEnd, fileEndToEnd{m.name, m.unit, m.better, m.bound})
		}
	}
	for _, m := range driverPerLayer() {
		f.PerLayer = append(f.PerLayer, filePerLayer{m.name, m.unit, m.better})
	}
	return f
}

// TestBenchmarkJSON keeps the driver's copy of the contract equal to
// spec.go. On a mismatch it prints the file spec.go implies.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := wantBenchmarkFile()
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match bench/spec.go; spec.go implies:\n%s", out)
	}
}

func TestResolvablePercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := resolvablePercentile(c.n); got != c.want {
			t.Errorf("resolvablePercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"cubeftl/internal/nand.(*Chip).ReadPage", "cubeftl/internal/ssd.(*Device).Read"}, "nand.cpu_pct"},
		{[]string{"math.Pow", "cubeftl/internal/vth.Distribution.Age", "cubeftl/internal/nand.(*Chip).ReadPage"}, "vth.cpu_pct"},
		{[]string{"container/heap.up", "cubeftl/internal/sim.(*Engine).Schedule", "cubeftl/internal/ftl.(*Controller).Read"}, "sim.cpu_pct"},
		{[]string{"runtime.memmove", "cubeftl/internal/ftl.(*Controller).flush.func1"}, "ftl.cpu_pct"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "cubeftl/internal/host.(*Host).issue"}, "goruntime.malloc_cpu_pct"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "cubeftl/internal/host.(*Host).issue"}, "goruntime.gc_cpu_pct"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "goruntime.gc_cpu_pct"},
		{[]string{"cubeftl.(*SSD).RunWorkload", "main.deviceWorkload.run"}, "other.cpu_pct"},
		{[]string{"cubeftl/internal/experiment.Fig05"}, "other.cpu_pct"},
		{nil, "other.cpu_pct"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if l, ok := layerOf("cubeftl/internal/server.(*Server).coreLoop"); !ok || l != "server" {
		t.Errorf("layerOf(server frame) = %q, %v", l, ok)
	}
}

// pb is a tiny protobuf writer for building a profile by hand.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(field)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func TestFoldProfile(t *testing.T) {
	strs := []string{"", "cubeftl/internal/nand.(*Chip).ReadPage", "runtime.mallocgc", "cubeftl/internal/ftl.(*Controller).Read"}
	var prof pb
	for id := 1; id <= 3; id++ {
		var fn, line, loc pb
		fn.varint(1, uint64(id))
		fn.varint(2, uint64(id)) // name = strs[id]
		prof.bytesField(5, fn.Bytes())
		line.varint(1, uint64(id))
		loc.varint(1, uint64(id))
		loc.bytesField(4, line.Bytes())
		prof.bytesField(4, loc.Bytes())
	}
	sample := func(value uint64, packed bool, locs ...uint64) {
		var s pb
		if packed {
			var ids []byte
			for _, l := range locs {
				ids = binary.AppendUvarint(ids, l)
			}
			s.bytesField(1, ids)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.bytesField(2, binary.AppendUvarint(binary.AppendUvarint(nil, 1), value))
		prof.bytesField(2, s.Bytes())
	}
	sample(30, true, 1, 3)  // nand leaf under ftl
	sample(10, false, 2, 3) // malloc under ftl
	sample(60, true, 3)     // ftl itself
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"nand.cpu_pct": 30, "goruntime.malloc_cpu_pct": 10, "ftl.cpu_pct": 60}
	sum := 0.0
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, v, want[k])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layers sum to %g, want 100", sum)
	}
	if len(got) != len(cpuPctNames()) {
		t.Errorf("%d layers folded, want every one of %d present", len(got), len(cpuPctNames()))
	}
}

func TestJudge(t *testing.T) {
	higher := metricSpec{name: "wall_req_per_s", better: "higher", bound: 0.10}
	lower := metricSpec{name: "fail_frac", better: "lower", bound: 0}
	st := func(median, spreadPct float64) stat { return stat{Median: median, SpreadPct: spreadPct} }
	for _, c := range []struct {
		m        metricSpec
		old, cur stat
		want     string
	}{
		{higher, st(100, 2), st(97, 2), verdictOK},
		{higher, st(100, 2), st(80, 2), verdictWorse},
		{higher, st(100, 2), st(130, 2), verdictOK},
		{higher, st(100, 15), st(95, 3), verdictUnresolved}, // noise wider than the bound: cannot say unchanged
		{higher, st(100, 15), st(70, 3), verdictWorse},      // worse by more than bound and noise
		{lower, st(0, 0), st(0, 0), verdictOK},
		{lower, st(0, 0), st(0.001, 0), verdictWorse}, // any increase from zero
	} {
		if _, got := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.name, c.old, c.cur, got, c.want)
		}
	}
}

func TestExpandMSR(t *testing.T) {
	text, n, err := expandMSR(msrFixture, 3)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(text)), "\n")
	if n != len(lines) || n%3 != 0 {
		t.Fatalf("%d records in %d lines for 3 passes", n, len(lines))
	}
	prev := ""
	for _, l := range lines {
		ts := l[:strings.IndexByte(l, ',')]
		if len(ts) < len(prev) || (len(ts) == len(prev) && ts < prev) {
			t.Fatalf("timestamps go backwards: %s after %s", ts, prev)
		}
		prev = ts
	}
	if a, b := fleetShape(3); a != fleetTextPasses || b != 3*fleetPassesPerSec/fleetTextPasses {
		t.Errorf("fleetShape(3) = %d, %d", a, b)
	}
	if a, b := fleetShape(0.001); a != 1 || b != 1 {
		t.Errorf("fleetShape(0.001) = %d, %d", a, b)
	}
}

// inProcess builds a harness whose repetitions run in this process and
// whose isolated calls are skipped.
func inProcess(c config) *harness {
	h := &harness{cfg: c, stderr: io.Discard}
	h.spawn = func(workload, mode string, size float64) (*rep, error) {
		cc := c
		cc.workload, cc.mode, cc.seconds = workload, mode, size
		return runChild(cc)
	}
	h.isolated = func(uint64, time.Duration) (map[string]float64, error) { return map[string]float64{}, nil }
	return h
}

// TestSmoke runs every workload once at 1/100 size with tracing on and
// checks the repetition is correct and reports what the spec says the
// workload reports.
func TestSmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	for _, ws := range workloadSpecs {
		r, err := runChild(config{workload: ws.name, mode: modeTraced, seed: 3,
			seconds: runSeconds / 100.0 / repsPerRun, outDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", ws.name, err)
		}
		if r.Failed != 0 || r.Attempted < 1 || len(r.Notes) > 0 {
			t.Errorf("%s: attempted=%d failed=%d notes=%v", ws.name, r.Attempted, r.Failed, r.Notes)
		}
		for _, m := range endToEnd {
			if m.name == gainVsPage {
				continue // needs the page-FTL twin; see TestDriverLines
			}
			v, reported := r.Metrics[m.name]
			switch {
			case m.appliesTo(ws.name) && !reported:
				t.Errorf("%s: %s not reported", ws.name, m.name)
			case m.gated && v <= 0:
				t.Errorf("%s: gated metric %s = %g, must never be 0", ws.name, m.name, v)
			}
		}
		var cpu, read float64
		for name, v := range r.Metrics {
			switch {
			case strings.HasSuffix(name, "cpu_pct"):
				cpu += v
			case strings.Contains(name, ".read_") && strings.HasSuffix(name, "_share"):
				read += v
			}
		}
		// At 1/100 size a mostly-sleeping server can go unsampled.
		if math.Abs(cpu-100) > 1 && !(cpu == 0 && ws.name == "served-loopback") {
			t.Errorf("%s: layer cpu_pct values sum to %g, want 100 +- 1", ws.name, cpu)
		}
		if _, ok := r.Metrics["nand.read_cell_share"]; ok && math.Abs(read-1) > 0.01 {
			t.Errorf("%s: read shares sum to %g, want 1 +- 0.01", ws.name, read)
		}
		if (r.Digest == "") != (ws.name == "served-loopback") {
			t.Errorf("%s: sim_digest %q", ws.name, r.Digest)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+ws.name+".json")); err != nil {
			t.Errorf("%s: traced pass wrote no span file: %v", ws.name, err)
		}
	}
	// About 4 s here. Not asserted: this box's speed changes by a factor
	// of three, and a tier-1 test must not fail on that.
	t.Logf("smoke took %v", time.Since(start))
}

// TestDriverLines runs whole invocations and checks that the line the
// driver reads names exactly the metrics BENCHMARK.json promises, with
// their units, in both trace modes.
func TestDriverLines(t *testing.T) {
	for _, c := range []struct {
		workload string
		trace    int
	}{{"fleet-replay", 0}, {"fleet-replay", 1}, {"oltp-burst", 1}} {
		cfg := config{workload: c.workload, seed: 3, seconds: runSeconds / 100.0, trace: c.trace, outDir: t.TempDir()}
		res, err := inProcess(cfg).measure()
		if err != nil {
			t.Fatalf("%s trace %d: %v", c.workload, c.trace, err)
		}
		wr := res.Workloads[0]
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d notes=%v",
				c.workload, c.trace, wr.Correct, wr.Attempted, wr.Failed, wr.Notes)
		}
		var line bytes.Buffer
		if err := driverLine(&line, wr, c.trace); err != nil {
			t.Fatal(err)
		}
		var got struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		bf := wantBenchmarkFile()
		if c.trace == 0 {
			for _, m := range bf.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bf.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		for name, unit := range want {
			if v, ok := got.Metrics[name]; !ok {
				t.Errorf("%s trace %d: %s not emitted", c.workload, c.trace, name)
			} else if v.Unit != unit {
				t.Errorf("%s trace %d: %s has unit %q, want %q", c.workload, c.trace, name, v.Unit, unit)
			}
		}
		for name := range got.Metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s trace %d: %s emitted but not in BENCHMARK.json", c.workload, c.trace, name)
			}
		}
		if c.workload == "oltp-burst" && wr.PerLayer[gainVsPage] == 0 {
			t.Error("oltp-burst: no gain over the page-FTL twin reported")
		}
	}
}

func TestIsolatedReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("times every layer's calls; a few seconds")
	}
	m, err := isolated(1, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range perLayer {
		if s.from != fromIsolated {
			continue
		}
		want++
		v, ok := m[s.name]
		if !ok {
			t.Errorf("%s not measured", s.name)
		} else if v <= 0 && !strings.HasSuffix(s.name, "_allocs") {
			t.Errorf("%s = %g", s.name, v)
		}
	}
	if len(m) != want {
		t.Errorf("isolated measured %d metrics, spec lists %d", len(m), want)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate float64) string {
		res := result{Workloads: []*workloadResult{{Name: "mixed-fresh", Correct: true, Digest: "d",
			EndToEnd: map[string]stat{"wall_req_per_s": newStat([]float64{rate, rate * 1.01, rate * 0.99})}}}}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base, same, slow := write("a.json", 1000), write("b.json", 1010), write("c.json", 600)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, base, same); err != nil || worse {
		t.Errorf("same: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, base, slow); err != nil || !worse {
		t.Errorf("slow: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), "1000 1/s") {
		t.Errorf("comparison does not show the verdict and the base:\n%s", out.String())
	}
}
