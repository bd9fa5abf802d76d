package ftl

import (
	"testing"

	"cubeftl/internal/sim"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
)

// telemetryController builds a fault-test controller with a hub (tracer
// on) attached before any I/O.
func telemetryController(t *testing.T, seed uint64, blocks int) (*sim.Engine, *Controller, *telemetry.Hub) {
	t.Helper()
	eng, dev := faultDevice(seed, blocks)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true
	c := NewController(dev, NewPagePolicy(), cfg)
	hub := telemetry.NewHub(eng, seed)
	hub.EnableTracer(telemetry.TracerConfig{})
	c.SetTelemetry(hub)
	return eng, c, hub
}

// Regression for the requeue double-count hazard: a program killed at
// grant time by a die fence (ErrDieFenced) bounces its pages back to
// the write buffer and re-flushes them on a surviving die. Each host
// write must still complete exactly once, the per-die program
// histograms must count only successful programs (Stats().Programs),
// and the requeue must surface as a counter — not as a second
// completion or a second program sample.
func TestFencedRequeueSingleCompletionTelemetry(t *testing.T) {
	eng, c, hub := telemetryController(t, 19, 24)

	// Same shape as TestDegradedFenceFailsQueuedPrograms: two word-line
	// groups, one per die; die 1's program queues behind die 0's channel
	// transfers and is fenced before its grant.
	const pages = 2 * vth.PagesPerWL
	completions := make([]int, pages)
	probes := make([]*telemetry.PageProbe, pages)
	for lpn := LPN(0); lpn < pages; lpn++ {
		lpn := lpn
		pp := &telemetry.PageProbe{Die: -1}
		probes[lpn] = pp
		if err := c.Write(lpn, pp, func() { completions[lpn]++ }); err != nil {
			t.Fatalf("Write(%d): %v", lpn, err)
		}
	}
	eng.After(1000, func() { c.markDieDegraded(1) })
	eng.Run()
	eng.RunWhile(func() bool { return !c.Drained() })

	st := c.Stats()
	if st.FencedPrograms != 1 {
		t.Fatalf("FencedPrograms = %d, want 1", st.FencedPrograms)
	}
	// One host-visible completion per write — the requeue is a sub-event
	// of the same write, never a second completion.
	for lpn, n := range completions {
		if n != 1 {
			t.Errorf("LPN %d completed %d times, want 1", lpn, n)
		}
	}
	// The per-die program histograms saw only successful programs: their
	// total count matches Stats().Programs, which does not count the
	// fenced attempt.
	var histN int64
	for die := 0; die < 2; die++ {
		h := c.dies[die].progHist
		histN += h.N()
	}
	if histN != st.Programs {
		t.Errorf("prog hist samples = %d, Stats().Programs = %d (requeue double-counted?)",
			histN, st.Programs)
	}
	if n := c.dies[1].progHist.N(); n != 0 {
		t.Errorf("fenced die recorded %d program samples", n)
	}
	// The requeue surfaced in the registry and as page-level buffer
	// accounting: the whole fenced word-line group bounced once.
	if got := hub.Registry().Snapshot().Counters["ftl/requeue/fenced"]; got != st.FencedPrograms {
		t.Errorf("ftl/requeue/fenced = %d, want %d", got, st.FencedPrograms)
	}
	if got := c.buf.requeueEvents; got != int64(vth.PagesPerWL) {
		t.Errorf("buffer requeueEvents = %d, want %d", got, vth.PagesPerWL)
	}
	// And in the trace event stream as an FTL-track instant on die 1.
	found := false
	for _, ev := range hub.Tracer().Events() {
		if ev.Name == "requeue_fenced" && ev.Pid == telemetry.PidFTL && ev.Tid == 1 {
			found = true
			break
		}
	}
	if !found {
		t.Error("requeue_fenced instant missing from trace")
	}
	// Write probes were charged buffer/admit time exactly once per page.
	for lpn, pp := range probes {
		if !pp.Buffered {
			t.Errorf("LPN %d probe never marked buffered", lpn)
		}
		if pp.BufferNs+pp.AdmitWaitNs <= 0 {
			t.Errorf("LPN %d probe has no buffer/admit time", lpn)
		}
	}
}

// Attaching telemetry must not change what a run computes: same final
// mapping-relevant stats with the hub on or off, same simulated clock.
func TestTelemetryPassiveOnFencePath(t *testing.T) {
	run := func(withHub bool) (Stats, sim.Time) {
		eng, dev := faultDevice(19, 24)
		cfg := DefaultControllerConfig()
		cfg.WriteBufferPages = 32
		cfg.VerifyData = true
		c := NewController(dev, NewPagePolicy(), cfg)
		if withHub {
			hub := telemetry.NewHub(eng, 19)
			hub.EnableTracer(telemetry.TracerConfig{})
			c.SetTelemetry(hub)
		}
		const pages = 2 * vth.PagesPerWL
		for lpn := LPN(0); lpn < pages; lpn++ {
			if err := c.Write(lpn, nil, func() {}); err != nil {
				t.Fatalf("Write(%d): %v", lpn, err)
			}
		}
		eng.After(1000, func() { c.markDieDegraded(1) })
		eng.Run()
		eng.RunWhile(func() bool { return !c.Drained() })
		return *c.Stats(), eng.Now()
	}
	off, offNow := run(false)
	on, onNow := run(true)
	if offNow != onNow {
		t.Errorf("clock differs: off %d, on %d", offNow, onNow)
	}
	if off.Programs != on.Programs || off.FencedPrograms != on.FencedPrograms ||
		off.HostWrites != on.HostWrites || off.GCCount != on.GCCount {
		t.Errorf("stats differ with telemetry on:\noff %+v\non  %+v", off, on)
	}
}
