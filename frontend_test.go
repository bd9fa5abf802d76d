package cubeftl

import (
	"errors"
	"testing"
)

// A front-end command's callback is the host layer's own: it runs once
// per accepted command, with the host-visible latency, and never for a
// submission the queue refused.
func TestFrontEndCommandRecords(t *testing.T) {
	s, err := New(Options{FTL: FTLCube, Channels: 1, DiesPerChannel: 2, BlocksPerChip: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Prefill(64)
	fe, err := s.AttachFrontEnd([]QueueSpec{{Name: "q", Depth: 2}}, ArbRR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []IOCompletion
	done := func(ic IOCompletion) { got = append(got, ic) }
	for lpn := int64(0); lpn < 2; lpn++ {
		if err := fe.Submit(0, false, lpn, 1, done); err != nil {
			t.Fatal(err)
		}
	}
	if err := fe.Submit(0, false, 2, 1, done); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit into a depth-2 queue: %v, want ErrQueueFull", err)
	}
	fe.Pump()
	if len(got) != 2 || got[0].LatencyNs <= 0 || got[0].DoneNs-got[0].SubmitNs != got[0].LatencyNs {
		t.Fatalf("completions %+v, want two with a latency", got)
	}
	if fe.Outstanding() != 0 {
		t.Errorf("%d commands outstanding after the pump", fe.Outstanding())
	}
}
