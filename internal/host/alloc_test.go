package host

import (
	"errors"
	"testing"

	"cubeftl/internal/rng"
)

// Allocation gates for the steady-state datapath, in the style of
// nand's BenchmarkReadPage: telemetry off, a warmed stack (histograms,
// calendar, rings and op-record free lists at their steady-state
// sizes), testing.AllocsPerRun. Each gate has a Benchmark twin with
// ReportAllocs for the same path.

// warmedHost builds host -> ftl -> ssd -> nand over a small device,
// maps the first 60 % of the logical space and quiesces.
func warmedHost(tb testing.TB, cfg Config) (h *Host, mapped int) {
	tb.Helper()
	ctrl := newTestController(11)
	h, err := New(ctrl, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	mapped = ctrl.LogicalPages() * 6 / 10
	for lpn := 0; lpn < mapped; lpn++ {
		for h.Submit(0, Command{Op: Write, LPN: int64(lpn)}) != nil {
			h.Drain()
		}
	}
	h.Drain()
	return h, mapped
}

func oneQueue() Config {
	return Config{Queues: []QueueConfig{{Name: "t", Depth: 8}}}
}

// fullQueue returns a host whose only queue is at depth: every further
// Submit is refused.
func fullQueue(tb testing.TB) *Host {
	h, _ := warmedHost(tb, Config{Queues: []QueueConfig{{Name: "t", Depth: 4}}, DispatchWidth: 1})
	for i := 0; i < 4; i++ {
		if err := h.Submit(0, Command{Op: Read, LPN: int64(i)}); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

// The refusal closed-loop drivers use as flow control costs nothing.
func TestSubmitFullQueueAllocs(t *testing.T) {
	h := fullQueue(t)
	before := h.Stats(0).QueueFulls
	var err error
	if n := testing.AllocsPerRun(1000, func() {
		err = h.Submit(0, Command{Op: Read, LPN: 9})
	}); n != 0 {
		t.Fatalf("Submit on a full queue allocates %v per call, want 0", n)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue returned %v", err)
	}
	if got, want := err.Error(), "host: submission queue full: t (depth 4)"; got != want {
		t.Fatalf("refusal text %q, want %q", got, want)
	}
	if got := h.Stats(0).QueueFulls - before; got != 1001 { // AllocsPerRun makes one warm-up call
		t.Fatalf("QueueFulls grew by %d over 1001 refusals", got)
	}
}

func BenchmarkSubmitFullQueue(b *testing.B) {
	h := fullQueue(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Submit(0, Command{Op: Read, LPN: 9}) == nil {
			b.Fatal("full queue admitted a command")
		}
	}
}

func pageRead(h *Host, src *rng.Source, mapped int) func() {
	return func() {
		if err := h.Submit(0, Command{Op: Read, LPN: int64(src.Intn(mapped))}); err != nil {
			panic(err)
		}
		h.Drain()
	}
}

// A mapped single-page host read, submit to completion, allocates
// nothing: the latency histograms are fixed buckets.
func TestHostPageReadAllocs(t *testing.T) {
	h, mapped := warmedHost(t, oneQueue())
	read := pageRead(h, rng.New(5), mapped)
	for i := 0; i < 2000; i++ {
		read()
	}
	if n := testing.AllocsPerRun(4000, read); n != 0 {
		t.Fatalf("mapped host page read allocates %v per read, want 0", n)
	}
	if st := h.Controller().Stats(); st.BufferHits+st.UnmappedReads != 0 {
		t.Fatalf("reads did not reach flash: %d buffer hits, %d unmapped", st.BufferHits, st.UnmappedReads)
	}
}

// A token-bucket stall adds nothing: the wake-up that ends it is bound
// once per queue. A rate far below the device's empties the Depth-deep
// bucket within the warm-up, and every read after it waits out a refill.
func TestThrottledReadAllocs(t *testing.T) {
	h, mapped := warmedHost(t, Config{Queues: []QueueConfig{{Name: "t", Depth: 8, RateIOPS: 1000}}})
	read := pageRead(h, rng.New(5), mapped)
	for i := 0; i < 2000; i++ {
		read()
	}
	before := h.Stats(0).Throttles
	if n := testing.AllocsPerRun(4000, read); n != 0 {
		t.Fatalf("throttled host page read allocates %v per read, want 0", n)
	}
	if got := h.Stats(0).Throttles - before; got != 4001 { // AllocsPerRun makes one warm-up call
		t.Fatalf("%d of 4001 reads were throttled", got)
	}
}

func BenchmarkHostPageRead(b *testing.B) {
	h, mapped := warmedHost(b, oneQueue())
	read := pageRead(h, rng.New(5), mapped)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read()
	}
}

// wordLineWrite submits one word line's worth of single-page writes and
// runs them through the flush.
func wordLineWrite(h *Host, src *rng.Source, mapped int) func() {
	return func() {
		for p := 0; p < pagesPerWL; p++ {
			if err := h.Submit(0, Command{Op: Write, LPN: int64(src.Intn(mapped))}); err != nil {
				panic(err)
			}
		}
		h.Drain()
	}
}

const pagesPerWL = 3

// A word line of buffered host page writes, through the program that
// flushes it and the garbage collection the overwrites cause, allocates
// nothing once every block has been through a life: spare-area records
// go into the block's arena, OPM records into a recycled row, latency
// samples into fixed buckets. The warm-up overwrites the mapped space
// several times so that no block is left on its first life.
func TestHostPageWriteAllocs(t *testing.T) {
	h, mapped := warmedHost(t, oneQueue())
	write := wordLineWrite(h, rng.New(6), mapped)
	for i := 0; i < 4000; i++ {
		write()
	}
	if perWL := testing.AllocsPerRun(2000, write); perWL != 0 {
		t.Fatalf("buffered host page writes allocate %v per word line, want 0", perWL)
	}
	if h.Controller().Stats().GCCount == 0 {
		t.Fatal("overwrites never triggered garbage collection: the gate did not cover it")
	}
}

func BenchmarkHostPageWrite(b *testing.B) {
	h, mapped := warmedHost(b, oneQueue())
	write := wordLineWrite(h, rng.New(6), mapped)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += pagesPerWL {
		write()
	}
}

// A command record returned to the free list must not be stepped again.
func TestReleasedCommandRecordPanicsWhenStepped(t *testing.T) {
	h, _ := warmedHost(t, oneQueue())
	c := h.cmds.Get()
	if c == nil || c.live || c.lastPP != nil || c.e.cmd.Done != nil {
		t.Fatalf("completed command left no clean spare record: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("stepping a released command record did not panic")
		}
	}()
	c.pageDone()
}
