package workload

import (
	"math"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/metrics"
	"cubeftl/internal/sim"
)

// bulkWriter is a saturating sequential-writer profile used as the
// noisy neighbor in QoS tests.
var bulkWriter = Profile{
	Name:          "Bulk",
	ReadFraction:  0,
	SizesPages:    []int{4, 8},
	SizeWeights:   []float64{0.5, 0.5},
	FootprintFrac: 0.8,
	SeqWriteFrac:  0.9,
}

// latencyReader is a small-read latency-sensitive tenant.
var latencyReader = Profile{
	Name:          "Reader",
	ReadFraction:  1.0,
	SizesPages:    []int{1},
	SizeWeights:   []float64{1},
	Theta:         0.9,
	FootprintFrac: 0.4,
}

func multiSpecs(ctrl *ftl.Controller, seed uint64, readerQ, writerQ host.QueueConfig, readerReqs, writerReqs int) []TenantSpec {
	pages := ctrl.LogicalPages()
	return []TenantSpec{
		{Gen: NewStream(latencyReader, pages, seed), Requests: readerReqs, Queue: readerQ},
		{Gen: NewStream(bulkWriter, pages, seed+1), Requests: writerReqs, Queue: writerQ},
	}
}

// histFingerprint captures a histogram's identity without mutating it
// beyond percentile sorting: count, bit-exact mean, and the standard
// percentile grid.
func histFingerprint(h *metrics.Hist) []uint64 {
	fp := []uint64{uint64(h.N()), math.Float64bits(h.Mean())}
	for _, p := range metrics.StandardPercentiles {
		fp = append(fp, uint64(h.Percentile(p)))
	}
	return fp
}

func TestMultiQueueDeterministicReplay(t *testing.T) {
	run := func() (MultiResult, [][]uint64) {
		ctrl := newTestController(11)
		Prefill(ctrl, int64(ctrl.LogicalPages())/2)
		ctrl.ResetStats()
		mr, err := RunTenants(ctrl, multiSpecs(ctrl, 21,
			host.QueueConfig{Depth: 4, Weight: 8},
			host.QueueConfig{Depth: 24, Weight: 1},
			400, 800),
			MultiRunConfig{Arbiter: host.NewWeightedRoundRobin(), DispatchWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		var fps [][]uint64
		for _, tr := range mr.Tenants {
			fps = append(fps, histFingerprint(tr.ReadLat), histFingerprint(tr.WriteLat))
		}
		return mr, fps
	}
	a, afp := run()
	b, bfp := run()
	if a.TraceHash != b.TraceHash || a.Grants != b.Grants {
		t.Fatalf("arbitration traces diverged: %x/%d vs %x/%d",
			a.TraceHash, a.Grants, b.TraceHash, b.Grants)
	}
	if a.ElapsedNs != b.ElapsedNs {
		t.Fatalf("elapsed diverged: %d vs %d", a.ElapsedNs, b.ElapsedNs)
	}
	for i := range afp {
		for j := range afp[i] {
			if afp[i][j] != bfp[i][j] {
				t.Fatalf("histogram %d field %d diverged: %d vs %d", i, j, afp[i][j], bfp[i][j])
			}
		}
	}
}

func TestStrictPriorityStarvationGuardCompletes(t *testing.T) {
	const guard = 500 * sim.Microsecond
	run := func(guardNs int64) MultiResult {
		ctrl := newTestController(12)
		Prefill(ctrl, int64(ctrl.LogicalPages())/2)
		ctrl.ResetStats()
		// The *writer* is high priority and saturating; the low-priority
		// reader must still make progress through the guard.
		mr, err := RunTenants(ctrl, multiSpecs(ctrl, 33,
			host.QueueConfig{Depth: 4, Priority: 0},
			host.QueueConfig{Depth: 24, Priority: 5},
			200, 1200),
			MultiRunConfig{Arbiter: host.NewStrictPriority(guardNs), DispatchWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		return mr
	}
	guarded := run(guard)
	reader := guarded.Tenants[0]
	if reader.Completed != 200 {
		t.Fatalf("low-priority tenant completed %d/200 under strict priority with guard", reader.Completed)
	}
	if guarded.Tenants[1].Completed != 1200 {
		t.Fatalf("high-priority tenant completed %d/1200", guarded.Tenants[1].Completed)
	}

	unguarded := run(0)
	if unguarded.Tenants[0].Completed != 200 {
		t.Fatalf("low-priority tenant completed %d/200 without guard", unguarded.Tenants[0].Completed)
	}
	// The guard bounds head-of-queue waits; pure strict priority lets
	// the low-priority head wait far longer behind the saturating
	// writer.
	if reader.MaxHeadWaitNs >= unguarded.Tenants[0].MaxHeadWaitNs {
		t.Fatalf("guard did not reduce head waits: %d (guarded) vs %d (unguarded)",
			reader.MaxHeadWaitNs, unguarded.Tenants[0].MaxHeadWaitNs)
	}
}

func TestWRRIsolatesLatencySensitiveTenant(t *testing.T) {
	// The acceptance scenario at test scale: under a saturating bulk
	// writer, the reader's p99 with WRR (8:1) must beat plain RR.
	run := func(arb host.Arbiter, wReader, wWriter int) MultiResult {
		ctrl := newTestController(13)
		Prefill(ctrl, int64(ctrl.LogicalPages())/2)
		ctrl.ResetStats()
		mr, err := RunTenants(ctrl, multiSpecs(ctrl, 55,
			host.QueueConfig{Depth: 4, Weight: wReader},
			host.QueueConfig{Depth: 32, Weight: wWriter},
			400, 1600),
			MultiRunConfig{Arbiter: arb, DispatchWidth: 6})
		if err != nil {
			t.Fatal(err)
		}
		return mr
	}
	rr := run(host.NewRoundRobin(), 1, 1)
	wrr := run(host.NewWeightedRoundRobin(), 8, 1)
	rrP99 := rr.Tenants[0].ReadLat.Percentile(99)
	wrrP99 := wrr.Tenants[0].ReadLat.Percentile(99)
	if wrrP99 >= rrP99 {
		t.Fatalf("WRR did not isolate the reader: p99 %d ns (wrr) vs %d ns (rr)", wrrP99, rrP99)
	}
}

func TestRunTenantsAggregateMatchesMerge(t *testing.T) {
	ctrl := newTestController(14)
	mr, err := RunTenants(ctrl, multiSpecs(ctrl, 66,
		host.QueueConfig{Depth: 8}, host.QueueConfig{Depth: 8}, 150, 150),
		MultiRunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	aggR, aggW := mr.Aggregate()
	var wantR, wantW int64
	for _, tr := range mr.Tenants {
		wantR += tr.ReadLat.N()
		wantW += tr.WriteLat.N()
	}
	if aggR.N() != wantR || aggW.N() != wantW {
		t.Fatalf("aggregate N = %d/%d, want %d/%d", aggR.N(), aggW.N(), wantR, wantW)
	}
	if mr.Tenants[0].Completed != 150 || mr.Tenants[1].Completed != 150 {
		t.Fatalf("tenants completed %d/%d", mr.Tenants[0].Completed, mr.Tenants[1].Completed)
	}
}

func TestRateLimitedTenantThrottled(t *testing.T) {
	// The same reader tenant, capped vs uncapped, alongside the same
	// bulk writer: the cap must bound its throughput and record
	// throttle events.
	run := func(rate float64) TenantResult {
		ctrl := newTestController(15)
		mr, err := RunTenants(ctrl, multiSpecs(ctrl, 77,
			host.QueueConfig{Depth: 4, RateIOPS: rate},
			host.QueueConfig{Depth: 8},
			100, 100), MultiRunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return mr.Tenants[0]
	}
	capped := run(5000)
	free := run(0)
	if capped.Throttles == 0 {
		t.Fatal("rate-limited tenant never throttled")
	}
	if ips := capped.IOPS(); ips > 5500 {
		t.Fatalf("rate-limited tenant ran at %.0f IOPS, cap 5000", ips)
	}
	if free.Throttles != 0 {
		t.Fatal("unlimited tenant throttled")
	}
	if free.IOPS() <= capped.IOPS() {
		t.Fatalf("uncapped reader (%.0f IOPS) not faster than capped (%.0f)",
			free.IOPS(), capped.IOPS())
	}
}

func TestPrefillStopsOnDegraded(t *testing.T) {
	ctrl := newTestController(16)
	// Asking for more pages than the logical capacity must stop at the
	// capacity bound (ErrBadLPN) and report what was actually written,
	// instead of spinning through fake completions.
	n := int64(ctrl.LogicalPages())
	written := Prefill(ctrl, n+5000)
	if written != n {
		t.Fatalf("Prefill wrote %d, want %d (logical capacity)", written, n)
	}
	if !ctrl.Drained() {
		t.Fatal("controller not drained after truncated prefill")
	}
}
