// Package sim implements the discrete-event simulation engine underneath
// the SSD model: a virtual clock, an event calendar, and FIFO resources
// (buses, chip planes) with utilization accounting.
//
// The engine is single-threaded and deterministic: events scheduled for
// the same instant fire in scheduling order.
package sim

import (
	"fmt"
	"sync/atomic"

	"cubeftl/internal/pool"
)

// Time is simulated time in nanoseconds since the start of the run.
type Time = int64

// Common durations in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among same-instant events
	fn  func()
}

// before orders events by (at, seq). seq is unique, so the order is
// total and any correct priority queue pops the same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// calendar is a 4-ary min-heap of inline events: no interface boxing,
// half the depth of a binary heap, and children that share a cache
// line. Vacated slots are zeroed so a fired callback (and whatever it
// captured) is not pinned by the backing array.
type calendar []event

const heapArity = 4

func (h *calendar) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *calendar) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if !s[min].before(&last) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = last
	return top
}

// Engine is a discrete-event simulator.
type Engine struct {
	now    Time
	events calendar
	seq    uint64
	fired  uint64

	// Arrival stream (Feed): n pre-sequenced arrivals that are ordered
	// against the calendar as events (feedAt(i), feedSeq+i) but are never
	// materialised as events. feedI == feedN when no stream is active.
	feedN, feedI int
	feedSeq      uint64 // sequence number of arrival 0
	feedNext     Time   // feedAt(feedI), valid while feedI < feedN
	feedAt       func(i int) Time
	feedFire     func(i int)

	// Clock-crossing probe (telemetry sampling). The probe is NOT an
	// event: it fires as a side effect of the clock advancing past each
	// interval boundary, before the event at the new time runs. It
	// therefore cannot extend a run (Run() still terminates when the
	// calendar drains) or perturb event ordering.
	probeEvery Time
	probeNext  Time
	probeFn    func(at Time)

	// interrupted is the only engine field another goroutine may touch:
	// Interrupt sets it asynchronously (a signal handler, a server's
	// control plane) and every run loop checks it between events. The
	// event that is executing when the flag lands still finishes, so the
	// simulation state stays consistent — the run simply returns early
	// with events left on the calendar. Unused, it changes nothing: runs
	// remain deterministic.
	interrupted atomic.Bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events,
// arrivals of an unfinished Feed included.
func (e *Engine) Pending() int { return len(e.events) + e.feedN - e.feedI }

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a modeling bug.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// After runs fn d nanoseconds from now. Negative d is treated as zero.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Feed registers n arrivals exactly as if fire(i) had been Scheduled at
// at(i) for i = 0 … n-1, now and in index order, without putting n
// events on the calendar: it reserves the sequence numbers those calls
// would have taken, and Step fires arrival i when (at(i), its reserved
// number) orders before the calendar's top. Every arrival and every
// event scheduled afterwards therefore has the (time, sequence) pair
// up-front scheduling would have given it, so the fired order — ties
// against events already on the calendar included — is the same. at is
// called once per arrival, in index order, and must be non-decreasing
// and not before Now; a violation, or a Feed while an earlier one is
// unfinished, panics like scheduling in the past does.
func (e *Engine) Feed(n int, at func(i int) Time, fire func(i int)) {
	if e.feedI < e.feedN {
		panic(fmt.Sprintf("sim: Feed with %d arrivals of the previous one unfired", e.feedN-e.feedI))
	}
	if n <= 0 {
		return
	}
	e.feedN, e.feedI = n, 0
	e.feedSeq = e.seq + 1
	e.seq += uint64(n)
	e.feedAt, e.feedFire = at, fire
	e.feedNext = e.now
	e.loadArrival()
}

// loadArrival reads the time of arrival feedI, which must not precede
// the previous arrival (or, for the first, the clock).
func (e *Engine) loadArrival() {
	at := e.feedAt(e.feedI)
	if at < e.feedNext {
		panic(fmt.Sprintf("sim: arrival %d at %d before %d", e.feedI, at, e.feedNext))
	}
	e.feedNext = at
}

// arrivalDue reports whether the next arrival orders before the
// calendar's top. Only called while a Feed is unfinished.
func (e *Engine) arrivalDue() bool {
	if len(e.events) == 0 {
		return true
	}
	next := event{at: e.feedNext, seq: e.feedSeq + uint64(e.feedI)}
	return next.before(&e.events[0])
}

// stepArrival fires the next arrival in place of a calendar event.
func (e *Engine) stepArrival() {
	i, fire := e.feedI, e.feedFire
	e.now = e.feedNext
	e.feedI++
	if e.feedI < e.feedN {
		e.loadArrival()
	} else {
		e.feedAt, e.feedFire = nil, nil
	}
	if e.probeFn != nil {
		e.fireProbe()
	}
	e.fired++
	fire(i)
}

// nextAt returns the time of whatever Step would fire next.
func (e *Engine) nextAt() (Time, bool) {
	if e.feedI < e.feedN && e.arrivalDue() {
		return e.feedNext, true
	}
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// SetProbe installs fn to run once per every interval of simulated time
// the clock crosses, invoked with the boundary time while the clock
// sits at (or past) it. Passing a nil fn or non-positive every removes
// the probe. The probe must not schedule events or otherwise mutate
// simulation state — it exists for passive observation (telemetry
// snapshots), and because it is not an event it cannot keep a Run()
// alive or change what a run computes.
func (e *Engine) SetProbe(every Time, fn func(at Time)) {
	if fn == nil || every <= 0 {
		e.probeEvery, e.probeFn = 0, nil
		return
	}
	e.probeEvery = every
	e.probeFn = fn
	e.probeNext = (e.now/every + 1) * every
}

// fireProbe runs the probe for every interval boundary in (prev, now].
func (e *Engine) fireProbe() {
	for e.probeFn != nil && e.now >= e.probeNext {
		at := e.probeNext
		e.probeNext += e.probeEvery
		e.probeFn(at)
	}
}

// Step fires the next event, advancing the clock. It reports whether an
// event was available.
func (e *Engine) Step() bool {
	if e.feedI < e.feedN && e.arrivalDue() {
		e.stepArrival()
		return true
	}
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	if e.probeFn != nil {
		e.fireProbe()
	}
	e.fired++
	ev.fn()
	return true
}

// Run fires events until the calendar is empty.
func (e *Engine) Run() {
	for !e.interrupted.Load() && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to the deadline (if it has not already passed it).
func (e *Engine) RunUntil(deadline Time) {
	for {
		at, ok := e.nextAt()
		if !ok || at > deadline {
			break
		}
		if e.interrupted.Load() {
			return
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
		if e.probeFn != nil {
			e.fireProbe()
		}
	}
}

// RunWhile fires events while cond() is true and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for !e.interrupted.Load() && cond() && e.Step() {
	}
}

// Interrupt asks the current (or next) Run/RunWhile/RunUntil call to
// return after the event in progress. It is the one engine entry point
// safe to call from another goroutine — signal handlers and server
// control planes use it to halt a long simulation at a consistent
// event boundary. The calendar is preserved; clear the flag with
// ClearInterrupt to resume.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called and not yet
// cleared.
func (e *Engine) Interrupted() bool { return e.interrupted.Load() }

// ClearInterrupt re-arms the run loops after an Interrupt.
func (e *Engine) ClearInterrupt() { e.interrupted.Store(false) }

// Resource is a unit-capacity FIFO server (a flash bus, a chip). Grants
// are issued in request order; utilization (busy time) is accounted for
// reporting bus/chip occupancy.
type Resource struct {
	eng      *Engine
	name     string
	busy     bool
	waiters  pool.Ring[func()]
	busyFrom Time
	busyTot  Time
	grants   uint64
}

// NewResource returns an idle resource attached to the engine.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{eng: eng, name: name}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Acquire requests the resource. grant runs (synchronously if the
// resource is idle, otherwise when it is released to this waiter) with
// the resource held; the holder must call Release exactly once.
func (r *Resource) Acquire(grant func()) {
	if !r.busy {
		r.take()
		grant()
		return
	}
	r.waiters.Push(grant)
}

func (r *Resource) take() {
	r.busy = true
	r.busyFrom = r.eng.Now()
	r.grants++
}

// Release frees the resource and hands it to the next waiter, if any.
// Releasing an idle resource panics.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: Release of idle resource " + r.name)
	}
	r.busy = false
	r.busyTot += r.eng.Now() - r.busyFrom
	if r.waiters.Len() > 0 {
		next := r.waiters.Pop()
		r.take()
		next()
	}
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiters.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Grants returns how many times the resource has been granted.
func (r *Resource) Grants() uint64 { return r.grants }

// BusyTime returns cumulative held time (including the current hold up
// to now).
func (r *Resource) BusyTime() Time {
	t := r.busyTot
	if r.busy {
		t += r.eng.Now() - r.busyFrom
	}
	return t
}

// Utilization returns BusyTime divided by elapsed simulated time.
func (r *Resource) Utilization() float64 {
	if r.eng.Now() == 0 {
		return 0
	}
	return float64(r.BusyTime()) / float64(r.eng.Now())
}
