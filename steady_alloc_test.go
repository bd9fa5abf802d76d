package cubeftl

import (
	"runtime"
	"testing"
)

// The whole-device allocation gate (DESIGN.md §18): a warmed cube
// device serves a mixed workload, garbage collection included, without
// allocating per request — spare-area records go to per-block arenas,
// OPM records to recycled rows, ORT and retry table are flat, latency
// samples land in fixed buckets. What is left is RunWorkload's own
// set-up (generator, drivers, result histograms: some 200 objects a
// call) and three objects per garbage-collected block (its next write
// cursor and that cursor's bitmap, the relocation set): 0.0127 per
// request here, 0.0146 under ort-pr (0.0140 / 0.0158 while a cycle's
// erase chain was three closures and victim choice built a map). The
// Go collector is left on: a gate that only holds with it off would
// hide garbage.
func TestSteadyStateAllocs(t *testing.T) {
	for _, mode := range []string{"", "ort-pr"} {
		t.Run("retry="+mode, func(t *testing.T) {
			dev, err := New(Options{FTL: FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 64, Seed: 3, RetryMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			dev.Prefill(int64(0.8 * float64(dev.LogicalPages())))
			// Warm: every block through at least one life, every pool,
			// ring and table row at its steady-state size.
			if _, err := dev.RunWorkload("Mixed", 60000, 24); err != nil {
				t.Fatal(err)
			}
			dev.ResetStats()

			const requests = 20000
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := dev.RunWorkload("Mixed", requests, 24)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perReq := float64(after.Mallocs-before.Mallocs) / requests
			t.Logf("%d allocations over %d requests (%d GC runs): %.4f per request", after.Mallocs-before.Mallocs, requests, st.GCRuns, perReq)
			if perReq > 0.02 {
				t.Errorf("steady state allocates %.4f per request, want <= 0.02", perReq)
			}
			if st.GCRuns == 0 {
				t.Error("garbage collection never ran: the gate did not cover it")
			}
			if cs := dev.Cube(); mode != "" && (cs.RetryHits == 0 || cs.RetryEntries == 0) {
				t.Errorf("retry table idle under %q: %+v", mode, cs)
			}
		})
	}
}
