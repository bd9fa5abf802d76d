package cubeftl

import (
	"runtime"
	"testing"
)

// warmedDevice is the device the steady-state gates run on: a 2x4x64
// cube device prefilled to 80 % and warmed by 60 000 Mixed requests, so
// every block has been through at least one life and every pool, ring
// and table row is at its steady-state size.
func warmedDevice(t *testing.T, retryMode string) *SSD {
	t.Helper()
	dev, err := New(Options{FTL: FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 64, Seed: 3, RetryMode: retryMode})
	if err != nil {
		t.Fatal(err)
	}
	dev.Prefill(int64(0.8 * float64(dev.LogicalPages())))
	if _, err := dev.RunWorkload("Mixed", 60000, 24); err != nil {
		t.Fatal(err)
	}
	return dev
}

// The whole-device allocation gate (DESIGN.md §18): a warmed cube
// device serves a mixed workload, garbage collection included, without
// allocating per request — a device without Recovery programs no
// spare-area records, OPM records go to recycled rows, ORT and retry
// table are flat, latency samples land in fixed buckets. What is left
// is RunWorkload's own set-up (generator, drivers, result histograms:
// some 200 objects a call) and three objects per garbage-collected
// block (its next write cursor and that cursor's bitmap, the relocation
// set): 0.0094 per request here, 0.0111 under ort-pr (0.0110 / 0.0126
// while every block's first life made its spare arena). The Go
// collector is left on: a gate that only holds with it off would hide
// garbage.
func TestSteadyStateAllocs(t *testing.T) {
	for _, mode := range []string{"", "ort-pr"} {
		t.Run("retry="+mode, func(t *testing.T) {
			dev := warmedDevice(t, mode)
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

// The whole-device residency gate, beside the allocation gate: the heap
// a warmed device keeps live after a collection. On this 2x4x64 device
// it is about 11.3 MiB, and the bound is 25 % above that; the
// spare-area arenas a device without Recovery used to keep (18 KB a
// block) took it to about 19.
func TestSteadyStateHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dev := warmedDevice(t, "")
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dev)
	const bound = 14 << 20
	inuse := int64(after.HeapInuse) - int64(before.HeapInuse)
	t.Logf("warmed device: %.2f MiB of heap in use after GC", float64(inuse)/(1<<20))
	if inuse > bound {
		t.Errorf("warmed device keeps %.2f MiB of heap in use, want <= %.0f MiB", float64(inuse)/(1<<20), float64(bound)/(1<<20))
	}
}
