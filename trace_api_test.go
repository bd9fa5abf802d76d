package cubeftl

import (
	"bytes"
	"strings"
	"testing"

	"cubeftl/internal/workload"
)

// TestRecordAndReplayTrace records a workload, reads the recording back
// as MSR CSV — the generator's exact requests, arriving together within
// a burst and one pause apart across bursts — and replays all of it.
func TestRecordAndReplayTrace(t *testing.T) {
	const n = 300 // Rocks pauses after every 160th request
	var buf bytes.Buffer
	if err := RecordTrace(&buf, "Rocks", 50000, n, 7); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ParseTimedTrace("rocks", bytes.NewReader(buf.Bytes()), workload.TraceOptions{Format: TraceFormatMSR})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("parsed %d of %d recorded requests", tr.Len(), n)
	}
	gen := workload.NewStream(workload.Rocks, 50000, 7)
	var at int64
	for i, got := range tr.Reqs {
		want := gen.Next()
		if got.Op != want.Op || got.LPN != want.LPN || got.Pages != want.Pages || got.AtNs != at {
			t.Fatalf("record %d: got %+v, want %+v arriving at %d ns", i, got, want, at)
		}
		at += want.ThinkNs
	}
	if at == 0 {
		t.Fatal("no burst pause recorded")
	}

	dev, err := New(smallOptions(FTLCube))
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.ReplayTrace("rocks", bytes.NewReader(buf.Bytes()), TraceReplayOptions{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n || st.IOPS <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecordTraceUnknownWorkload(t *testing.T) {
	if err := RecordTrace(&bytes.Buffer{}, "nope", 100, 10, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSuspendAndWearOptions(t *testing.T) {
	opts := smallOptions(FTLCube)
	opts.SuspendOps = true
	opts.WearAware = true
	dev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.RunWorkload("Mongo", 400, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 400 {
		t.Fatalf("requests = %d", st.Requests)
	}
}

func TestCheapFigureClosures(t *testing.T) {
	for _, id := range []string{"fig5", "fig8", "fig10", "fig11", "fig13", "abl-safety"} {
		var buf bytes.Buffer
		if err := ReproduceFigure(id, 2, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestExpensiveFigureClosures(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack figures")
	}
	// fig14 and the aging fig17 variants exercise the remaining
	// registry entries; fig17a/fig18/tprog/ablations run in benchmarks.
	var buf bytes.Buffer
	if err := ReproduceFigure("fig14", 2, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NumRetry") {
		t.Error("fig14 output malformed")
	}
}
