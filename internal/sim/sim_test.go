package sim

import (
	"testing"
	"testing/quick"

	"cubeftl/internal/rng"
)

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() { at = e.Now() })
	e.Run()
	if at != 100 {
		t.Errorf("event fired at %d, want 100", at)
	}
	if e.Now() != 100 {
		t.Errorf("clock = %d", e.Now())
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(50, func() { order = append(order, 2) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(99, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestAfterNegativeClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("After(-5) never fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.After(10, func() {
		trace = append(trace, e.Now())
		e.After(15, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 25 {
		t.Errorf("trace = %v", trace)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(10); i <= 100; i += 10 {
		e.Schedule(i, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Errorf("fired %d events by t=50, want 5", count)
	}
	if e.Now() != 50 {
		t.Errorf("clock = %d, want 50", e.Now())
	}
	e.RunUntil(200)
	if count != 10 {
		t.Errorf("fired %d total, want 10", count)
	}
	if e.Now() != 200 {
		t.Errorf("clock = %d, want 200", e.Now())
	}
}

func TestRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 100; i++ {
		e.Schedule(i, func() { count++ })
	}
	e.RunWhile(func() bool { return count < 7 })
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	granted := false
	r.Acquire(func() { granted = true })
	if !granted {
		t.Fatal("idle resource did not grant synchronously")
	}
	if !r.Busy() {
		t.Fatal("resource not busy after grant")
	}
	r.Release()
	if r.Busy() {
		t.Fatal("resource busy after release")
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "chip")
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() {
			order = append(order, i)
			e.After(10, r.Release)
		})
	}
	if r.QueueLen() != 4 {
		t.Fatalf("queue len = %d, want 4", r.QueueLen())
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v", order)
		}
	}
	if e.Now() != 50 {
		t.Errorf("five serial 10ns holds ended at %d, want 50", e.Now())
	}
}

// hold acquires r, keeps it for d, then releases it and runs then
// (which may be nil).
func hold(r *Resource, d Time, then func()) {
	r.Acquire(func() {
		r.eng.After(d, func() {
			r.Release()
			if then != nil {
				then()
			}
		})
	})
}

func TestResourceHoldSerializes(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "chip")
	var doneAt []Time
	for i := 0; i < 3; i++ {
		hold(r, 100, func() { doneAt = append(doneAt, e.Now()) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i, v := range doneAt {
		if v != want[i] {
			t.Errorf("doneAt = %v, want %v", doneAt, want)
			break
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	r.Release()
}

func TestUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "bus")
	hold(r, 50, nil)
	e.Schedule(100, func() {}) // extend the run to t=100
	e.Run()
	if bt := r.BusyTime(); bt != 50 {
		t.Errorf("BusyTime = %d, want 50", bt)
	}
	if u := r.Utilization(); u != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
	if r.Grants() != 1 {
		t.Errorf("Grants = %d", r.Grants())
	}
}

func TestQuickEventsFireInTimestampOrder(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		e := NewEngine()
		var fired []Time
		for i := 0; i < 200; i++ {
			at := Time(src.Intn(1000))
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickResourceNeverDoubleGranted(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		e := NewEngine()
		r := NewResource(e, "x")
		holders := 0
		ok := true
		for i := 0; i < 100; i++ {
			d := Time(src.Intn(20) + 1)
			at := Time(src.Intn(500))
			e.Schedule(at, func() {
				r.Acquire(func() {
					holders++
					if holders > 1 {
						ok = false
					}
					e.After(d, func() {
						holders--
						r.Release()
					})
				})
			})
		}
		e.Run()
		return ok && holders == 0 && r.Grants() == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInterruptStopsRunAtEventBoundary(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i*100), func() {
			fired++
			if fired == 3 {
				e.Interrupt()
			}
		})
	}
	e.Run()
	if fired != 3 {
		t.Errorf("fired %d events, want 3 (interrupt after third)", fired)
	}
	if !e.Interrupted() {
		t.Error("Interrupted() = false after Interrupt")
	}
	if e.Pending() != 7 {
		t.Errorf("calendar kept %d events, want 7", e.Pending())
	}
	// The interrupt is sticky until cleared.
	e.Run()
	if fired != 3 {
		t.Errorf("interrupted Run fired events: %d", fired)
	}
	e.ClearInterrupt()
	e.Run()
	if fired != 10 || e.Pending() != 0 {
		t.Errorf("resumed run: fired %d (want 10), pending %d (want 0)", fired, e.Pending())
	}
}

func TestInterruptStopsRunWhileAndRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 6; i++ {
		e.Schedule(Time(i), func() {
			fired++
			if fired == 2 {
				e.Interrupt()
			}
		})
	}
	e.RunWhile(func() bool { return true })
	if fired != 2 {
		t.Errorf("RunWhile fired %d, want 2", fired)
	}
	e.ClearInterrupt()
	e.Interrupt()
	e.RunUntil(100)
	if fired != 2 {
		t.Errorf("interrupted RunUntil fired %d, want 2", fired)
	}
	if e.Now() >= 100 {
		t.Errorf("interrupted RunUntil advanced the clock to %d", e.Now())
	}
	e.ClearInterrupt()
	e.RunUntil(100)
	if fired != 6 || e.Now() != 100 {
		t.Errorf("resumed RunUntil: fired %d (want 6), now %d (want 100)", fired, e.Now())
	}
}
