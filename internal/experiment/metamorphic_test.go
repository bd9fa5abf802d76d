package experiment

import (
	"testing"

	"cubeftl/internal/workload"
)

// Metamorphic tests: relations that must hold between whole simulation
// runs when one knob changes. They catch modeling regressions that
// point assertions miss.

func TestMetamorphicSuspendHelpsReadTail(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	run := func(suspend bool) int64 {
		o := smallOpts()
		o.Requests = 2500
		o.SuspendOps = suspend
		out := RunWorkload(PolicyPage, workload.Rocks, o)
		return out.Result.ReadLat.Percentile(99)
	}
	blocking := run(false)
	suspended := run(true)
	if float64(suspended) > 1.02*float64(blocking) {
		t.Errorf("suspend worsened read P99: %d vs %d", suspended, blocking)
	}
}

func TestMetamorphicAgingNeverHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	// For every policy, an end-of-life device is no faster than a
	// fresh one on a read-heavy workload.
	for _, kind := range []PolicyKind{PolicyPage, PolicyCube} {
		fresh := smallOpts()
		fresh.Requests = 2500
		aged := fresh
		aged.PECycles, aged.RetentionMonths = 2000, 12
		f := RunWorkload(kind, workload.Proxy, fresh).IOPS()
		a := RunWorkload(kind, workload.Proxy, aged).IOPS()
		if a > f {
			t.Errorf("%s: aged IOPS %v above fresh %v", kind, a, f)
		}
	}
}

func TestMetamorphicMoreRequestsSameRates(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	// Throughput is a rate: doubling the request count must not change
	// IOPS by more than run-to-run noise.
	small := smallOpts()
	small.Requests = 2000
	big := small
	big.Requests = 4000
	a := RunWorkload(PolicyCube, workload.Mongo, small).IOPS()
	b := RunWorkload(PolicyCube, workload.Mongo, big).IOPS()
	ratio := b / a
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("IOPS not run-length invariant: %v vs %v", a, b)
	}
}

func TestMetamorphicSeedChangesRunNotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack evaluation")
	}
	// Different seeds must give different absolute IOPS (the model is
	// stochastic) but preserve the cube-beats-page ordering.
	for _, seed := range []uint64{2, 3} {
		o := smallOpts()
		o.Requests = 2500
		o.Seed = seed
		page := RunWorkload(PolicyPage, workload.OLTP, o).IOPS()
		cube := RunWorkload(PolicyCube, workload.OLTP, o).IOPS()
		if cube <= page {
			t.Errorf("seed %d: cubeFTL %v not above pageFTL %v", seed, cube, page)
		}
	}
}
