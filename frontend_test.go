package cubeftl

import (
	"errors"
	"strings"
	"testing"

	"cubeftl/internal/host"
)

// A front-end command's completion travels through a pooled record
// (feCmd): one per command in flight, recycled on completion and on a
// refused submission, and never stepped once released.
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
	// The queue is at depth: the refusal hands its record straight back.
	if err := fe.Submit(0, false, 2, 1, done); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit into a depth-2 queue: %v, want ErrQueueFull", err)
	}
	if fe.cmds.Len() != 1 {
		t.Fatalf("%d spare records after a refused submit, want 1", fe.cmds.Len())
	}
	fe.Pump()
	if len(got) != 2 || got[0].Latency <= 0 {
		t.Fatalf("completions %+v, want two with a latency", got)
	}
	if fe.cmds.Len() != 3 {
		t.Fatalf("%d spare records after the pump, want 3", fe.cmds.Len())
	}

	a := fe.cmds.Get()
	if a.done != nil {
		t.Error("released record still holds its callback")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "released front-end command") {
			t.Fatalf("stepping a released record: panic %q", msg)
		}
	}()
	a.complete(host.Completion{})
}
