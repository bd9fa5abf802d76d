package cubeftl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cubeftl/internal/workload"
)

const msrFixture = "internal/workload/testdata/msr_sample.csv"

func openFixture(t *testing.T) *os.File {
	t.Helper()
	f, err := os.Open(msrFixture)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestReplayTraceFacade(t *testing.T) {
	dev, err := New(Options{FTL: FTLCube, BlocksPerChip: 8, Channels: 1, DiesPerChannel: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.ReplayTrace("msr_sample", openFixture(t), TraceReplayOptions{TimeCompression: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1200 {
		t.Errorf("replayed %d of 1200 fixture records", st.Requests)
	}
	if st.ReadP50 <= 0 || st.Elapsed <= 0 || st.IOPS <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
}

func TestReplayTraceBadInput(t *testing.T) {
	dev, err := New(Options{BlocksPerChip: 8, Channels: 1, DiesPerChannel: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.ReplayTrace("empty", strings.NewReader(""), TraceReplayOptions{})
	if !errors.Is(err, ErrTraceEmpty) {
		t.Errorf("empty trace: got %v", err)
	}
	_, err = dev.ReplayTrace("garbage", strings.NewReader("not,a,real\ntrace,at,all\n"), TraceReplayOptions{})
	if err == nil {
		t.Error("garbage trace accepted")
	}
	// MSR is the one grammar: "fiu", and "auto" for format sniffing, are
	// refused like any other name.
	for _, format := range []string{"fiu", "auto", "blktrace"} {
		if _, err := dev.ReplayTrace("msr_sample", openFixture(t), TraceReplayOptions{Format: format}); !errors.Is(err, ErrTraceFormat) {
			t.Errorf("format %q: got %v, want ErrTraceFormat", format, err)
		}
	}
	// An extent longer than the device: an error when strict, dropped
	// (leaving nothing to replay) when tolerant.
	huge := "0,h,0,Write,0,1125899906842624,0\n" // 2^50 bytes
	_, err = dev.ReplayTrace("huge", strings.NewReader(huge), TraceReplayOptions{})
	if !errors.Is(err, workload.ErrTraceExtent) {
		t.Errorf("oversized extent: got %v, want ErrTraceExtent", err)
	}
	_, err = dev.ReplayTrace("huge", strings.NewReader(huge), TraceReplayOptions{Tolerant: true})
	if !errors.Is(err, ErrTraceEmpty) {
		t.Errorf("oversized extent, tolerant: got %v, want ErrTraceEmpty", err)
	}
}

// msrRecords is an MSR trace of one single-page write per tick count.
func msrRecords(ticks ...int64) string {
	var b strings.Builder
	for i, at := range ticks {
		fmt.Fprintf(&b, "%d,h,0,Write,%d,16384,0\n", at, i*16384)
	}
	return b.String()
}

// TestReplayTraceKeepsArrivalGaps replays two records a second apart,
// compressed tenfold: the replay is open-loop, so the second write
// arrives 100 ms after the first however fast the device is, and the
// run spans the gap.
func TestReplayTraceKeepsArrivalGaps(t *testing.T) {
	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	const gap = 100 * time.Millisecond // 10^7 ticks of 100 ns, over 10
	st, err := dev.ReplayTrace("gap", strings.NewReader(msrRecords(0, 10_000_000)), TraceReplayOptions{TimeCompression: 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 {
		t.Fatalf("replayed %d of 2 records", st.Requests)
	}
	if st.Elapsed < gap || st.Elapsed > gap+10*time.Millisecond {
		t.Errorf("elapsed %v, want the %v gap plus one write", st.Elapsed, gap)
	}
}

// TestReplayTraceElapsedIsLastCompletion: a replay's Elapsed ends where
// RunWorkload's does, at the last request's completion — read off the
// traced spans — and not at the drain of the writes still buffered
// behind it.
func TestReplayTraceElapsedIsLastCompletion(t *testing.T) {
	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	dev.EnableTelemetry(TelemetryConfig{Trace: true})
	st, err := dev.ReplayTrace("burst", strings.NewReader(msrRecords(0, 0, 0, 5000, 5000, 90000)), TraceReplayOptions{QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	spans := dev.Telemetry().Tracer().Spans()
	if int64(len(spans)) != st.Requests || st.Requests != 6 {
		t.Fatalf("%d spans for %d requests, want 6", len(spans), st.Requests)
	}
	start, last := spans[0].SubmitNs, int64(0)
	for _, sp := range spans {
		start, last = min(start, sp.SubmitNs), max(last, sp.DoneNs)
	}
	if want := time.Duration(last - start); st.Elapsed != want {
		t.Errorf("Elapsed %v, want the last completion at %v", st.Elapsed, want)
	}
}

// TestReplayTraceBacklog offers 64 writes at one instant to a queue of
// depth 4: the records past the cap wait in the backlog, and every one
// of them completes.
func TestReplayTraceBacklog(t *testing.T) {
	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	st, err := dev.ReplayTrace("burst", strings.NewReader(msrRecords(make([]int64, n)...)), TraceReplayOptions{QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Errorf("replayed %d of %d records", st.Requests, n)
	}
}

func TestRunFleetFacadeDeterminism(t *testing.T) {
	var opts FleetOptions
	opts.Shards, opts.Tenants, opts.Seed = 8, 1024, 1
	opts.BlocksPerChip, opts.Channels, opts.DiesPerChannel = 8, 1, 2
	opts.Cache.SizePages = 1024
	topt := TraceReplayOptions{TimeCompression: 20}
	a, err := RunFleet(opts, "msr_sample", openFixture(t), topt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(opts, "msr_sample", openFixture(t), topt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Errorf("same seed diverged:\n--- a ---\n%s--- b ---\n%s", a.Report(), b.Report())
	}
	if a.TraceHash != b.TraceHash {
		t.Errorf("trace hash diverged: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Requests != 1200 {
		t.Errorf("fleet completed %d of 1200", a.Requests)
	}
	if len(a.Shards) != 8 {
		t.Fatalf("got %d shards, want 8", len(a.Shards))
	}
	tenants := 0
	for _, s := range a.Shards {
		tenants += s.Tenants
	}
	if tenants == 0 {
		t.Error("no tenants materialized")
	}
	// Wall time is the one field allowed to differ between runs; make
	// sure it is populated but never leaks into the report.
	if a.WallNs <= 0 {
		t.Error("wall time not measured")
	}
	if strings.Contains(a.Report(), "wall") {
		t.Error("wall clock leaked into the deterministic report")
	}
}

// One sample schema for a device and a shard: on one geometry and FTL,
// a shard's entry in the last row of the fleet series carries every key
// path of a single device's -stats-out line.
func TestFleetSeriesIsTheDeviceSchema(t *testing.T) {
	dev := Options{FTL: FTLCube, BlocksPerChip: 8, Channels: 1, DiesPerChannel: 2, Seed: 1}
	topt := TraceReplayOptions{TimeCompression: 20}

	ssd, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	ssd.EnableTelemetry(TelemetryConfig{})
	var single bytes.Buffer
	if err := ssd.StartStats(&single, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := ssd.ReplayTrace("msr_sample", openFixture(t), topt); err != nil {
		t.Fatal(err)
	}
	if err := ssd.CloseStats(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(single.Bytes()), []byte("\n"))
	want := keyPaths(t, lines[len(lines)-1])
	if !want["tenants[].name"] || !want["dies[].util"] || !want["metrics.gauges.cube/retry/hits"] {
		t.Fatalf("the device's own line lacks its schema: %v", want)
	}

	var opts FleetOptions
	opts.Shards, opts.Tenants, opts.Seed = 2, 64, dev.Seed
	opts.Policy, opts.BlocksPerChip, opts.Channels, opts.DiesPerChannel = dev.FTL, dev.BlocksPerChip, dev.Channels, dev.DiesPerChannel
	var series bytes.Buffer
	opts.StatsOut = &series
	if _, err := RunFleet(opts, "msr_sample", openFixture(t), topt); err != nil {
		t.Fatal(err)
	}
	rows := bytes.Split(bytes.TrimSpace(series.Bytes()), []byte("\n"))
	var last struct{ Shards []json.RawMessage }
	if err := json.Unmarshal(rows[len(rows)-1], &last); err != nil {
		t.Fatal(err)
	}
	if len(last.Shards) != opts.Shards {
		t.Fatalf("last row carries %d shards, want %d", len(last.Shards), opts.Shards)
	}
	for i, entry := range last.Shards {
		got := keyPaths(t, entry)
		for k := range want {
			if !got[k] {
				t.Errorf("shard %d's entry lacks the device key %s", i, k)
			}
		}
	}
}

func TestRunFleetFacadeErrors(t *testing.T) {
	topt := TraceReplayOptions{}
	if _, err := RunFleet(FleetOptions{}, "empty", strings.NewReader(""), topt); !errors.Is(err, ErrTraceEmpty) {
		t.Errorf("empty trace: got %v", err)
	}
	// A cache mode is typed now; cmd/cubefleet's tests cover the flag's
	// bad spellings.
	var badFTL FleetOptions
	badFTL.Policy = "btree"
	if _, err := RunFleet(badFTL, "msr", openFixture(t), topt); err == nil {
		t.Error("unknown fleet FTL accepted")
	}
}
