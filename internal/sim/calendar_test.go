package sim

import (
	"fmt"
	"sort"
	"testing"

	"cubeftl/internal/rng"
)

// scheduler is the slice of the engine API the differential script
// drives; the reference below implements it the obvious way.
type scheduler interface {
	Now() Time
	Schedule(at Time, fn func())
	After(d Time, fn func())
	Step() bool
	RunUntil(deadline Time)
	SetProbe(every Time, fn func(at Time))
	Pending() int
}

// refEngine keeps its calendar as a slice it fully sorts by (at, seq)
// before every pop. It shares no ordering code with the heap.
type refEngine struct {
	now        Time
	seq        uint64
	events     []event
	probeEvery Time
	probeNext  Time
	probeFn    func(at Time)
}

func (e *refEngine) Now() Time    { return e.now }
func (e *refEngine) Pending() int { return len(e.events) }

func (e *refEngine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic("ref: scheduling in the past")
	}
	e.seq++
	e.events = append(e.events, event{at: at, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

func (e *refEngine) SetProbe(every Time, fn func(at Time)) {
	if fn == nil || every <= 0 {
		e.probeEvery, e.probeFn = 0, nil
		return
	}
	e.probeEvery, e.probeFn = every, fn
	e.probeNext = (e.now/every + 1) * every
}

func (e *refEngine) fireProbe() {
	for e.probeFn != nil && e.now >= e.probeNext {
		at := e.probeNext
		e.probeNext += e.probeEvery
		e.probeFn(at)
	}
}

func (e *refEngine) sortEvents() {
	sort.Slice(e.events, func(i, j int) bool {
		a, b := e.events[i], e.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	e.sortEvents()
	ev := e.events[0]
	e.events = e.events[1:]
	e.now = ev.at
	e.fireProbe()
	ev.fn()
	return true
}

func (e *refEngine) RunUntil(deadline Time) {
	for {
		e.sortEvents()
		if len(e.events) == 0 || e.events[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
		e.fireProbe()
	}
}

// runCalendarScript drives s with a seed-derived interleaving of
// Schedule, After(0), scheduling from inside a firing event, Step,
// RunUntil and SetProbe, and returns the log of everything that fired.
func runCalendarScript(s scheduler, seed uint64) []string {
	src := rng.New(seed)
	var log []string
	nextID := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			log = append(log, fmt.Sprintf("ev%d@%d", id, s.Now()))
			if depth >= 3 {
				return
			}
			// A firing event schedules children: some at the current
			// instant (they must fire after everything already queued
			// for it), some later.
			for n := src.Intn(3); n > 0; n-- {
				switch src.Intn(3) {
				case 0:
					s.After(0, spawn(depth+1))
				case 1:
					s.After(Time(src.Intn(50)), spawn(depth+1))
				default:
					s.Schedule(s.Now()+Time(src.Intn(200)), spawn(depth+1))
				}
			}
		}
	}
	for op := 0; op < 400; op++ {
		switch src.Intn(10) {
		case 0, 1, 2:
			s.Schedule(s.Now()+Time(src.Intn(300)), spawn(0))
		case 3:
			s.After(0, spawn(0))
		case 4:
			// Bursts of same-instant events exercise the seq tie-break.
			at := s.Now() + Time(src.Intn(20))
			for n := src.Intn(6); n > 0; n-- {
				s.Schedule(at, spawn(1))
			}
		case 5, 6:
			for n := src.Intn(4); n > 0; n-- {
				s.Step()
			}
		case 7:
			s.RunUntil(s.Now() + Time(src.Intn(120)))
			log = append(log, fmt.Sprintf("until@%d", s.Now()))
		case 8:
			every := Time(src.Intn(40)) // 0 removes the probe
			s.SetProbe(every, func(at Time) {
				log = append(log, fmt.Sprintf("probe%d@%d", at, s.Now()))
			})
		default:
			log = append(log, fmt.Sprintf("pending%d", s.Pending()))
		}
	}
	for s.Step() {
	}
	return append(log, fmt.Sprintf("end@%d", s.Now()))
}

// The typed heap must fire exactly what a calendar sorted by (at, seq)
// fires, in the same order and at the same clock readings.
func TestCalendarMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		got := runCalendarScript(NewEngine(), seed)
		want := runCalendarScript(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference has %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d = %s, reference %s", seed, i, got[i], want[i])
			}
		}
		if len(got) < 200 {
			t.Fatalf("seed %d: script fired only %d entries", seed, len(got))
		}
	}
}

// A fired event's callback must not stay reachable through the
// calendar's backing array (it may capture a whole op record).
func TestCalendarZeroesVacatedSlots(t *testing.T) {
	e := NewEngine()
	src := rng.New(7)
	for i := 0; i < 500; i++ {
		e.Schedule(Time(src.Intn(1000)), func() {})
	}
	for i := 0; i < 300; i++ {
		e.Step()
	}
	backing := e.events[:cap(e.events)]
	for i := len(e.events); i < len(backing); i++ {
		if backing[i].fn != nil {
			t.Fatalf("slot %d beyond the live heap still holds a callback", i)
		}
	}
}

// Waiters used to be dropped with waiters = waiters[1:], which pinned
// every granted closure and grew the backing array with the number of
// acquisitions. The ring's capacity follows the peak queue length.
func TestResourceWaiterRingBounded(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	const peak, cycles = 5, 20000
	grant := func() {}
	r.Acquire(grant)
	for i := 0; i < cycles; i++ {
		for r.QueueLen() < peak {
			r.Acquire(grant)
		}
		r.Release()
	}
	if c := r.waiters.Cap(); c > 2*peak {
		t.Fatalf("waiter ring capacity %d after %d cycles at peak queue length %d", c, cycles, peak)
	}
}

func scheduleStepEngine() (*Engine, *rng.Source, func()) {
	e := NewEngine()
	src := rng.New(1)
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.Schedule(Time(src.Intn(1_000_000)), fn)
	}
	// One full turnover so the calendar's backing array is at its
	// steady-state size.
	for i := 0; i < 2000; i++ {
		e.After(Time(src.Intn(1_000_000)), fn)
		e.Step()
	}
	return e, src, fn
}

// Allocation gate: with a callback the caller already holds, Schedule +
// Step on a warmed calendar allocates nothing.
func TestScheduleStepAllocs(t *testing.T) {
	e, src, fn := scheduleStepEngine()
	if n := testing.AllocsPerRun(5000, func() {
		e.After(Time(src.Intn(1_000_000)), fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("Schedule+Step allocates %v per op, want 0", n)
	}
}

func BenchmarkScheduleStep(b *testing.B) {
	e, src, fn := scheduleStepEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Time(src.Intn(1_000_000)), fn)
		e.Step()
	}
}
