package cubeftl

import (
	"errors"
	"os"
	"strings"
	"testing"
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
}

func TestRunFleetFacadeDeterminism(t *testing.T) {
	var opts FleetOptions
	opts.Shards, opts.Tenants, opts.Seed = 8, 1024, 1
	opts.BlocksPerChip, opts.Channels, opts.DiesPerChannel = 8, 1, 2
	opts.Cache.SizePages, opts.Cache.Policy, opts.Cache.Mode = 1024, Cache2Q, CacheWriteBack
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
