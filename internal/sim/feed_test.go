package sim

import (
	"fmt"
	"testing"

	"cubeftl/internal/rng"
)

// scheduleAll is the oracle Feed is defined against: n Schedule calls,
// now and in index order.
func scheduleAll(e *Engine, n int, at func(i int) Time, fire func(i int)) {
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(at(i), func() { fire(i) })
	}
}

// runFeedScript puts timers on the calendar, registers a seed-derived
// arrival stream through feed, and drives the engine to the end with a
// mix of Step, RunUntil and RunWhile, logging everything that fires
// (with Fired() at that moment), every probe boundary and Pending() at
// every checkpoint. Arrival times are drawn with a small step so that
// runs of equal times, and ties against the earlier timers and against
// events scheduled from inside arrivals, are common.
func runFeedScript(seed uint64, feed func(e *Engine, n int, at func(i int) Time, fire func(i int))) []string {
	src := rng.New(seed)
	e := NewEngine()
	var log []string
	note := func(what string, id int) {
		log = append(log, fmt.Sprintf("%s%d@%d#%d", what, id, e.Now(), e.Fired()))
	}
	e.SetProbe(Time(1+src.Intn(30)), func(at Time) {
		log = append(log, fmt.Sprintf("probe%d@%d#%d", at, e.Now(), e.Fired()))
	})

	// The clock is not at zero and the calendar not empty when the
	// stream is registered (a prefill leaves both that way).
	e.Schedule(Time(src.Intn(40)), func() {})
	e.Step()
	for i, n := 0, src.Intn(12); i < n; i++ {
		i := i
		e.Schedule(e.Now()+Time(src.Intn(120)), func() { note("timer", i) })
	}

	n := 1 + src.Intn(200)
	times := make([]Time, n)
	t := e.Now()
	for i := range times {
		if src.Intn(3) > 0 {
			t += Time(src.Intn(4))
		}
		times[i] = t
	}
	children := 0
	feed(e, n, func(i int) Time { return times[i] }, func(i int) {
		note("arrival", i)
		for k := src.Intn(3); k > 0; k-- {
			id := children
			children++
			// Same-instant children and children landing on later
			// arrivals' times both occur.
			e.After(Time(src.Intn(6)), func() { note("child", id) })
		}
	})
	log = append(log, fmt.Sprintf("pending%d", e.Pending()))

	for e.Pending() > 0 {
		switch src.Intn(4) {
		case 0:
			for k := src.Intn(5); k > 0; k-- {
				e.Step()
			}
		case 1:
			e.RunUntil(e.Now() + Time(src.Intn(25)))
			log = append(log, fmt.Sprintf("until@%d", e.Now()))
		case 2:
			budget := src.Intn(7)
			e.RunWhile(func() bool { budget--; return budget >= 0 })
		default:
			log = append(log, fmt.Sprintf("pending%d", e.Pending()))
		}
	}
	if e.Step() {
		log = append(log, "stepped past the end")
	}
	return append(log, fmt.Sprintf("end@%d#%d", e.Now(), e.Fired()))
}

// An arrival stream fires what the same arrivals scheduled up front
// fire, in the same order, with the same Fired() and Pending() along
// the way and the same probe boundaries.
func TestFeedMatchesUpFrontSchedule(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		want := runFeedScript(seed, scheduleAll)
		got := runFeedScript(seed, (*Engine).Feed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines with Feed, %d with Schedule", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d: Feed %q, Schedule %q", seed, i, got[i], want[i])
			}
		}
	}
}

// Events scheduled after Feed order behind every arrival of the same
// instant, as they would behind n Schedule calls made earlier.
func TestFeedReservesSequenceNumbers(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() { order = append(order, "before") })
	e.Feed(2, func(int) Time { return 5 }, func(i int) { order = append(order, fmt.Sprint("arrival", i)) })
	e.Schedule(5, func() { order = append(order, "after") })
	e.Run()
	if got, want := fmt.Sprint(order), "[before arrival0 arrival1 after]"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	e.Feed(1, func(int) Time { return 9 }, func(int) {}) // a finished stream may be followed by another
	e.Run()
	if e.Now() != 9 || e.Fired() != 5 {
		t.Fatalf("second stream: now %d fired %d", e.Now(), e.Fired())
	}
}

func TestFeedMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("an arrival before Now", func() {
		e := NewEngine()
		e.Schedule(10, func() {})
		e.Run()
		e.Feed(1, func(int) Time { return 9 }, func(int) {})
	})
	mustPanic("a decreasing at", func() {
		e := NewEngine()
		e.Feed(3, func(i int) Time { return []Time{4, 8, 7}[i] }, func(int) {})
		e.Run()
	})
	mustPanic("a second Feed while one is unfinished", func() {
		e := NewEngine()
		e.Feed(2, func(int) Time { return 1 }, func(int) {})
		e.Step()
		e.Feed(1, func(int) Time { return 2 }, func(int) {})
	})
}

// Feed + Step allocates nothing per arrival, like Schedule + Step.
func TestFeedStepAllocs(t *testing.T) {
	e := NewEngine()
	fired := 0
	fire := func(int) { fired++ }
	if n := testing.AllocsPerRun(100, func() {
		base := e.Now()
		e.Feed(64, func(i int) Time { return base + Time(i) }, fire)
		e.Run()
	}); n > 1 { // the closure over base, built once per stream
		t.Fatalf("Feed of 64 arrivals allocates %v per stream, want <= 1", n)
	}
	if fired != 101*64 {
		t.Fatalf("fired %d arrivals", fired)
	}
}
