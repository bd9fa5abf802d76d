package host

import (
	"errors"
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
