package host

import (
	"errors"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

func newTestController(seed uint64) *ftl.Controller {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = 24
	cfg.Chip.Process.Layers = 8
	cfg.Seed = seed
	dev := ssd.New(eng, cfg)
	ccfg := ftl.DefaultControllerConfig()
	ccfg.WriteBufferPages = 48
	return ftl.NewController(dev, ftl.NewPagePolicy(), ccfg)
}

// Arbiter unit tests (pure Pick logic, no device).

func states(qs ...QueueState) []QueueState { return qs }

func TestRoundRobinCycles(t *testing.T) {
	a := NewRoundRobin()
	el := states(QueueState{Index: 0}, QueueState{Index: 1}, QueueState{Index: 2})
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, a.Pick(el, 0))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v", got, want)
		}
	}
	// A vanished queue is skipped without breaking the cycle.
	if idx := a.Pick(states(QueueState{Index: 0}, QueueState{Index: 1}), 0); idx != 0 {
		t.Fatalf("after wrap expected 0, got %d", idx)
	}
}

func TestWRRHonorsWeights(t *testing.T) {
	a := NewWeightedRoundRobin()
	el := states(QueueState{Index: 0, Weight: 3}, QueueState{Index: 1, Weight: 1})
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		counts[a.Pick(el, 0)]++
	}
	if counts[0] != 300 || counts[1] != 100 {
		t.Fatalf("grant split %v, want 300/100", counts)
	}
}

func TestWRRWorkConserving(t *testing.T) {
	a := NewWeightedRoundRobin()
	// Only the light queue is backlogged: it gets every grant.
	el := states(QueueState{Index: 1, Weight: 1})
	for i := 0; i < 10; i++ {
		if a.Pick(el, 0) != 1 {
			t.Fatal("WRR idled a grant while queue 1 had work")
		}
	}
}

func TestStrictPriorityPrefersUrgent(t *testing.T) {
	a := NewStrictPriority(0)
	el := states(QueueState{Index: 0, Priority: 0}, QueueState{Index: 1, Priority: 5})
	for i := 0; i < 10; i++ {
		if a.Pick(el, 0) != 1 {
			t.Fatal("strict priority granted the low-priority queue")
		}
	}
}

func TestStrictPriorityStarvationGuard(t *testing.T) {
	a := NewStrictPriority(1000)
	el := states(
		QueueState{Index: 0, Priority: 0, HeadWaitNs: 1500},
		QueueState{Index: 1, Priority: 5, HeadWaitNs: 10},
	)
	if a.Pick(el, 0) != 0 {
		t.Fatal("guard did not rescue the starving low-priority queue")
	}
	// Below the guard threshold, priority rules again.
	el[0].HeadWaitNs = 500
	if a.Pick(el, 0) != 1 {
		t.Fatal("guard fired below its threshold")
	}
	// A freshly rescued queue must wait a full guard period before the
	// next rescue, even if its new head is already over the threshold —
	// otherwise a saturating low-priority stream monopolizes the guard.
	el[0].HeadWaitNs = 1500
	if a.Pick(el, 500) != 1 {
		t.Fatal("guard rescued the same queue twice within one guard period")
	}
	if a.Pick(el, 1200) != 0 {
		t.Fatal("guard did not re-rescue after a full guard period")
	}
}

func TestNewArbiterNames(t *testing.T) {
	for _, name := range []string{"rr", "wrr", "prio"} {
		a, err := NewArbiter(name, 0)
		if err != nil || a.Name() != name {
			t.Fatalf("NewArbiter(%q) = %v, %v", name, a, err)
		}
	}
	if a, err := NewArbiter("", 0); err != nil || a.Name() != "rr" {
		t.Fatalf("default arbiter = %v, %v", a, err)
	}
	if _, err := NewArbiter("nope", 0); err == nil {
		t.Fatal("unknown arbiter accepted")
	}
}

// Host-level tests against a real controller.

func TestSubmitValidation(t *testing.T) {
	ctrl := newTestController(1)
	if _, err := New(ctrl, Config{}); !errors.Is(err, ErrNoQueues) {
		t.Fatalf("empty config: %v", err)
	}
	h, err := New(ctrl, Config{Queues: []QueueConfig{{Name: "t", Depth: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(3, Command{Op: Read}); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("bad queue: %v", err)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	ctrl := newTestController(2)
	// Depth 4, but only 1 device slot: submissions 5+ must bounce.
	h, err := New(ctrl, Config{
		Queues:        []QueueConfig{{Name: "t", Depth: 4}},
		DispatchWidth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i := 0; i < 10; i++ {
		err := h.Submit(0, Command{Op: Read, LPN: int64(i)})
		if err == nil {
			accepted++
		} else if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if accepted != 4 {
		t.Fatalf("accepted %d, want 4 (queue depth)", accepted)
	}
	if got := h.Stats(0).QueueFulls; got != 6 {
		t.Fatalf("QueueFulls = %d, want 6", got)
	}
	h.Drain()
	if h.Stats(0).Completed != 4 || h.Outstanding() != 0 {
		t.Fatalf("completed %d, outstanding %d", h.Stats(0).Completed, h.Outstanding())
	}
	// Capacity freed: submissions flow again.
	if err := h.Submit(0, Command{Op: Read}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	h.Drain()
}

func TestCompletionAccounting(t *testing.T) {
	ctrl := newTestController(3)
	h, _ := New(ctrl, Config{Queues: []QueueConfig{{Name: "t", Depth: 8}}})
	var comps []Completion
	for i := 0; i < 4; i++ {
		op := Read
		if i%2 == 1 {
			op = Write
		}
		err := h.Submit(0, Command{Op: op, LPN: int64(i * 3), Pages: 2, Done: func(c Completion) {
			comps = append(comps, c)
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	st := h.Stats(0)
	if len(comps) != 4 || st.Completed != 4 || st.Reads != 2 || st.Writes != 2 {
		t.Fatalf("completions %d, stats %+v", len(comps), st)
	}
	if st.ReadLat.N() != 2 || st.WriteLat.N() != 2 {
		t.Fatalf("latency samples %d/%d", st.ReadLat.N(), st.WriteLat.N())
	}
	for _, c := range comps {
		if c.DoneNs < c.SubmitNs || c.LatencyNs != c.DoneNs-c.SubmitNs {
			t.Fatalf("inconsistent completion %+v", c)
		}
		if c.LatencyNs <= 0 {
			t.Fatalf("zero-latency completion %+v", c)
		}
	}
	if st.Grants != 4 || h.Grants() != 4 {
		t.Fatalf("grants %d/%d", st.Grants, h.Grants())
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	ctrl := newTestController(4)
	// 10k IOPS cap, depth (and so burst) 1: steady state one fetch per
	// 100 us.
	h, _ := New(ctrl, Config{
		Queues: []QueueConfig{{Name: "t", Depth: 1, RateIOPS: 10000}},
	})
	eng := ctrl.Engine()
	issued, completed := 0, 0
	var pump func()
	pump = func() {
		for issued < 40 {
			err := h.Submit(0, Command{Op: Read, LPN: int64(issued % 50), Done: func(Completion) {
				completed++
				pump()
			}})
			if err != nil {
				return // queue full: resume on a completion
			}
			issued++
		}
	}
	pump()
	eng.RunWhile(func() bool { return completed < 40 })
	st := h.Stats(0)
	elapsed := st.LastDoneNs - st.FirstSubmitNs
	// 40 commands at 10k IOPS need ~3.9 ms of pacing (39 refill gaps).
	if elapsed < 3900*sim.Microsecond {
		t.Fatalf("rate limit not enforced: 40 cmds in %d ns", elapsed)
	}
	if st.Throttles == 0 {
		t.Fatal("no throttle events recorded")
	}
	if ips := st.IOPS(); ips > 10500 {
		t.Fatalf("IOPS %.0f exceeds 10k cap", ips)
	}
}

func TestUnlimitedQueueNotThrottled(t *testing.T) {
	ctrl := newTestController(5)
	h, _ := New(ctrl, Config{Queues: []QueueConfig{{Name: "t", Depth: 8}}})
	for i := 0; i < 8; i++ {
		if err := h.Submit(0, Command{Op: Read, LPN: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	h.Drain()
	if h.Stats(0).Throttles != 0 {
		t.Fatal("unlimited queue throttled")
	}
}

func TestGrantTrace(t *testing.T) {
	ctrl := newTestController(6)
	h, _ := New(ctrl, Config{
		Queues: []QueueConfig{
			{Name: "a", Depth: 4},
			{Name: "b", Depth: 4},
		},
		DispatchWidth: 1,
	})
	// One command at the device at a time: completions come in grant order.
	var trace []int
	done := func(q int) func(Completion) { return func(Completion) { trace = append(trace, q) } }
	for i := 0; i < 4; i++ {
		h.Submit(0, Command{Op: Read, LPN: int64(i), Done: done(0)})
		h.Submit(1, Command{Op: Read, LPN: int64(i + 10), Done: done(1)})
	}
	h.Drain()
	if h.Grants() != 8 || len(trace) != 8 {
		t.Fatalf("grants %d trace %v", h.Grants(), trace)
	}
	// Round-robin over two backlogged queues strictly alternates.
	for i, q := range trace {
		if q != i%2 {
			t.Fatalf("trace %v not alternating", trace)
		}
	}
	if h.TraceHash() == 0 {
		t.Fatal("trace hash not maintained")
	}
}

func TestHostDeterministicReplay(t *testing.T) {
	run := func() (uint64, int64, int64) {
		ctrl := newTestController(7)
		h, _ := New(ctrl, Config{
			Queues: []QueueConfig{
				{Name: "a", Depth: 8, Weight: 3},
				{Name: "b", Depth: 8, Weight: 1, RateIOPS: 50000},
			},
			Arb:           NewWeightedRoundRobin(),
			DispatchWidth: 4,
		})
		eng := ctrl.Engine()
		done := 0
		var pumps [2]func()
		for q := 0; q < 2; q++ {
			qid := q
			issued := 0
			pumps[q] = func() {
				for issued < 100 {
					op := Read
					if (issued+qid)%3 == 0 {
						op = Write
					}
					err := h.Submit(qid, Command{Op: op, LPN: int64((issued * 7) % 200), Done: func(Completion) {
						done++
						pumps[qid]()
					}})
					if err != nil {
						return
					}
					issued++
				}
			}
		}
		pumps[0]()
		pumps[1]()
		eng.RunWhile(func() bool { return done < 200 })
		return h.TraceHash(), h.Stats(0).ReadLat.Percentile(99), h.Stats(1).ReadLat.Percentile(99)
	}
	h1, a1, b1 := run()
	h2, a2, b2 := run()
	if h1 != h2 || a1 != a2 || b1 != b2 {
		t.Fatalf("replay diverged: hash %x/%x p99 %d/%d %d/%d", h1, h2, a1, a2, b1, b2)
	}
}

func TestOnlineWeightAndRateChanges(t *testing.T) {
	ctrl := newTestController(11)
	h, err := New(ctrl, Config{
		Queues: []QueueConfig{
			{Name: "a", Depth: 8, Weight: 1},
			{Name: "b", Depth: 8, Weight: 1},
		},
		Arb:           NewWeightedRoundRobin(),
		DispatchWidth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetWeight(0, 8); err != nil {
		t.Fatal(err)
	}
	if err := h.SetWeight(1, 0); err != nil { // clamps to 1
		t.Fatal(err)
	}
	if snap := h.Snapshot(); snap[0].Weight != 8 || snap[1].Weight != 1 {
		t.Fatalf("weights = %d/%d, want 8/1", snap[0].Weight, snap[1].Weight)
	}
	if err := h.SetWeight(7, 1); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("SetWeight on bad queue: %v", err)
	}
	if err := h.SetRate(9, 100); !errors.Is(err, ErrBadQueue) {
		t.Fatalf("SetRate on bad queue: %v", err)
	}

	// Saturate both queues; the online 8:1 weights must shape grants.
	// One command at the device at a time: completions come in grant order.
	var trace []int
	submit := func(qid, n int) {
		done := func(Completion) { trace = append(trace, qid) }
		for i := 0; i < n; i++ {
			lpn := int64(qid*1000 + i)
			if err := h.Submit(qid, Command{Op: Write, LPN: lpn, Done: done}); err != nil {
				t.Fatalf("submit q%d: %v", qid, err)
			}
		}
	}
	submit(0, 8)
	submit(1, 8)
	h.Drain()
	// With online weights 8:1 the first WRR cycle grants q0 eight times
	// before q1's single credit; count q0 wins among the first 8 grants.
	q0Early := 0
	for _, qid := range trace[:8] {
		if qid == 0 {
			q0Early++
		}
	}
	if q0Early < 7 {
		t.Fatalf("online weight had no effect: first 8 grants %v", trace[:8])
	}

	// A rate cap applied online must throttle, and removing it must not.
	if err := h.SetRate(1, 1000); err != nil { // 1k IOPS: ~1ms per token
		t.Fatal(err)
	}
	submit(1, 8) // consumes the initially-full burst bucket
	h.Drain()
	submit(1, 8) // bucket nearly empty: fetches must wait on refill
	h.Drain()
	if h.Stats(1).Throttles == 0 {
		t.Fatal("online rate cap produced no throttles")
	}
	throttled := h.Stats(1).Throttles
	if err := h.SetRate(1, 0); err != nil {
		t.Fatal(err)
	}
	submit(1, 8)
	h.Drain()
	if h.Stats(1).Throttles != throttled {
		t.Fatalf("uncapped queue kept throttling: %d -> %d", throttled, h.Stats(1).Throttles)
	}
}
