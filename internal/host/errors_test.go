package host

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// Every typed host error must survive the datapath's fmt.Errorf
// wrapping: callers branch with errors.Is, so a wrap that drops the
// sentinel silently breaks backpressure and config validation.
func TestTypedErrorsRoundTrip(t *testing.T) {
	ctrl := newTestController(1)

	if _, err := New(ctrl, Config{}); !errors.Is(err, ErrNoQueues) {
		t.Errorf("empty config: got %v, want ErrNoQueues", err)
	}

	h, err := New(ctrl, Config{Queues: []QueueConfig{{Name: "t", Depth: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Submit(5, Command{Op: Read, LPN: 0, Pages: 1}); !errors.Is(err, ErrBadQueue) {
		t.Errorf("bad qid: got %v, want ErrBadQueue", err)
	}
	if err := h.Submit(0, Command{Op: Read, LPN: 0, Pages: 1}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err = h.Submit(0, Command{Op: Read, LPN: 1, Pages: 1})
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("over depth: got %v, want ErrQueueFull", err)
	}
	if err == ErrQueueFull {
		t.Error("ErrQueueFull returned bare: wrap must add tenant/depth context")
	}

	if _, err := NewArbiter("bogus", 0); !errors.Is(err, ErrUnknownArbiter) {
		t.Errorf("bogus arbiter: got %v, want ErrUnknownArbiter", err)
	}
	for _, name := range []string{"", "rr", "wrr", "prio"} {
		if _, err := NewArbiter(name, 0); err != nil {
			t.Errorf("NewArbiter(%q): %v", name, err)
		}
	}
}

// A rate cap is 0 or a finite rate the engine's clock can wait for. NaN,
// negative and -Inf rates used to mean "uncapped" silently, and a
// positive rate under ~1.1e-10 IOPS overflowed the token wait so that
// the engine stepped 1 ns at a time forever; New and SetRate refuse them
// all, and SetRate leaves the queue's cap as it was.
func TestRateCapsValidated(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{0, true}, {MinRateIOPS, true}, {0.5, true}, {4000, true}, {math.MaxFloat64, true},
		{math.NaN(), false}, {-1, false}, {math.Inf(-1), false}, {math.Inf(1), false},
		{1e-12, false}, {math.Nextafter(MinRateIOPS, 0), false}, {math.SmallestNonzeroFloat64, false},
		{math.Copysign(0, -1), true},
	} {
		ctrl := newTestController(1)
		_, err := New(ctrl, Config{Queues: []QueueConfig{{Name: "t", Depth: 1, RateIOPS: tc.rate}}})
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrBadRate)) {
			t.Errorf("New with rate %v: %v, want ok=%v", tc.rate, err, tc.ok)
		}
		h, err := New(ctrl, Config{Queues: []QueueConfig{{Name: "t", Depth: 1, RateIOPS: 100}}})
		if err != nil {
			t.Fatal(err)
		}
		err = h.SetRate(0, tc.rate)
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrBadRate)) {
			t.Errorf("SetRate(%v): %v, want ok=%v", tc.rate, err, tc.ok)
		}
		if want := 100.0; !tc.ok && h.Snapshot()[0].RateIOPS != want {
			t.Errorf("refused SetRate(%v) moved the cap to %v", tc.rate, h.Snapshot()[0].RateIOPS)
		}
	}
}

// A negative depth or weight is an error naming the queue and the
// field, where New used to serve a 32-deep queue and a weight of 1;
// zero keeps each default.
func TestNewRejectsNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		qc    QueueConfig
		field string // "" = accepted
	}{
		{QueueConfig{Name: "a"}, ""},
		{QueueConfig{Name: "a", Depth: -1}, "depth"},
		{QueueConfig{Name: "a", Weight: -3}, "weight"},
	} {
		_, err := New(newTestController(1), Config{Queues: []QueueConfig{tc.qc}})
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: %v", tc.qc, err)
		case tc.field != "" && err == nil:
			t.Errorf("%+v accepted", tc.qc)
		case tc.field != "" && !(strings.Contains(err.Error(), tc.field) && strings.Contains(err.Error(), `"a"`)):
			t.Errorf("%+v: error %q does not name the queue and %s", tc.qc, err, tc.field)
		}
	}
}
