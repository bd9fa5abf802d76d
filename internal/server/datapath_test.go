package server

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"cubeftl"
	"cubeftl/internal/pool"
)

// The served datapath as data (DESIGN.md §13): one frame buffer per
// reader, pooled request records, replies staged per connection and
// written once per batch. The Benchmark* twins report the same figures
// with -benchmem.

// ioStream is n equal-sized IO frames back to back.
func ioStream(n int) []byte {
	var stream []byte
	for i := 0; i < n; i++ {
		stream = AppendIO(stream, IORequest{Op: OpWrite, Seq: uint64(i + 1), AckFloor: uint64(i), LPN: int64(i), Pages: 1})
	}
	return stream
}

// The connection reader keeps one frame buffer: after the first frame
// sized it, a stream of equal-sized frames reads and parses without
// allocating. (Keeping only the body's capacity loses a byte per frame
// and reallocates on every request.)
func TestReadLoopReusesFrameBuffer(t *testing.T) {
	const frames = 200
	br := bufio.NewReader(bytes.NewReader(ioStream(frames + 1)))
	frame, err := readFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := frame[:0]
	seq := uint64(1)
	n := testing.AllocsPerRun(frames-1, func() {
		frame, err := readFrame(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = frame[:0]
		r, err := ParseIO(frame[1:])
		if err != nil || frame[0] != MsgIO {
			t.Fatalf("frame type %d: %v", frame[0], err)
		}
		if seq++; r.Seq != seq {
			t.Fatalf("read seq %d, want %d", r.Seq, seq)
		}
	})
	if n != 0 {
		t.Errorf("reading one IO frame: %.1f allocations, want 0", n)
	}

	// The exported form gives a caller's buffer the same treatment.
	br = bufio.NewReader(bytes.NewReader(ioStream(frames + 1)))
	scratch := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(frames, func() {
		if _, _, err := ReadFrame(br, scratch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReadFrame into a caller's buffer: %.1f allocations, want 0", n)
	}
}

// coreFixture is a server whose core the test drives by hand — no
// listener, no goroutines — and one connection with an open session.
// The far end of the connection's pipe is drained and discarded.
func coreFixture(tb testing.TB) (*Server, *conn) {
	tb.Helper()
	cfg := testConfig(false)
	cfg.PrefillPages = 2000
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	near, far := net.Pipe()
	tb.Cleanup(func() { near.Close(); far.Close() })
	c := &conn{nc: near, out: make(chan []byte, 256), spare: make(chan []byte, 2)}
	s.handle(request{kind: kindConnect, c: c})
	s.handle(request{kind: kindHello, c: c, hello: Hello{Tenant: "lat"}})
	if typ, body := takeBatch(tb, c); typ != MsgHelloAck || len(body) != 21 {
		tb.Fatalf("hello answered with frame type %d, %d bytes", typ, len(body))
	}
	return s, c
}

// takeBatch plays the connection's writer: it takes the one batch the
// core flushed, hands the buffer back, and returns the first frame's
// type and the rest of the batch.
func takeBatch(tb testing.TB, c *conn) (typ byte, rest []byte) {
	tb.Helper()
	select {
	case b := <-c.out:
		typ, rest = b[4], append([]byte(nil), b[5:]...)
		select {
		case c.spare <- b:
		default:
		}
		return typ, rest
	default:
		tb.Fatal("core flushed no reply batch")
		return 0, nil
	}
}

// serveOne is the core's whole share of one IO: the parsed request in,
// the device pumped, the reply bytes handed to the writer.
func serveOne(s *Server, c *conn, r IORequest) {
	s.handle(request{kind: kindIO, c: c, io: r})
	s.pump()
	s.flushReplies()
}

func TestServerIOAllocs(t *testing.T) {
	s, c := coreFixture(t)
	seq := uint64(0)
	one := func(op uint8) {
		seq++
		serveOne(s, c, IORequest{Op: op, Seq: seq, AckFloor: seq - 1, LPN: int64(seq*37) % 2000, Pages: 1})
		b := <-c.out
		if rep, err := ParseIOReply(b[5:]); err != nil || rep.Seq != seq || rep.Status != StatusOK {
			t.Fatalf("seq %d answered %+v (%v)", seq, rep, err)
		}
		c.spare <- b
	}
	for i := 0; i < 64; i++ { // records, rings and buffers at size
		one(OpRead)
		one(OpWrite)
	}
	for name, op := range map[string]uint8{"read": OpRead, "write": OpWrite, "stat": OpStat} {
		if n := testing.AllocsPerRun(100, func() { one(op) }); n > 2 {
			t.Errorf("one served %s, parsed request to reply bytes: %.2f allocations, want at most 2", name, n)
		}
	}
}

// Every reply a pump produces for a connection leaves in one buffer —
// one write — and the buffers cycle between the core and the writer.
func TestRepliesBatchPerConnection(t *testing.T) {
	s, c := coreFixture(t)
	for seq := uint64(1); seq <= 3; seq++ {
		s.handleIO(c, IORequest{Op: OpRead, Seq: seq, LPN: int64(seq), Pages: 1})
	}
	if len(c.out) != 0 {
		t.Fatal("replies left before the pump")
	}
	s.pump()
	s.flushReplies()
	if len(c.out) != 1 {
		t.Fatalf("%d batches queued for the writer, want 1", len(c.out))
	}
	b := <-c.out
	const frameLen = 4 + 1 + 18
	if len(b) != 3*frameLen {
		t.Fatalf("batch is %d bytes, want three reply frames (%d)", len(b), 3*frameLen)
	}
	seen := map[uint64]bool{}
	for off := 0; off < len(b); off += frameLen {
		rep, err := ParseIOReply(b[off+5 : off+frameLen])
		if err != nil || rep.Status != StatusOK {
			t.Fatalf("frame at %d: %+v (%v)", off, rep, err)
		}
		seen[rep.Seq] = true
	}
	if len(seen) != 3 {
		t.Errorf("batch answers seqs %v, want 1, 2 and 3", seen)
	}
	if len(s.dirty) != 0 || len(c.pend) != 0 {
		t.Error("flush left replies staged")
	}

	// The writer hands the buffer back; the next batch is built in it.
	c.spare <- b
	serveOne(s, c, IORequest{Op: OpStat, Seq: 4, LPN: 1})
	serveOne(s, c, IORequest{Op: OpStat, Seq: 5, LPN: 1})
	<-c.out
	if b2 := <-c.out; &b2[0] != &b[0] {
		t.Error("second batch after the hand-back was not built in the returned buffer")
	}

	// A client that stops draining is shed, not waited for.
	for i := 0; i < cap(c.out)+2 && !c.closed; i++ {
		serveOne(s, c, IORequest{Op: OpStat, Seq: uint64(10 + i), LPN: 1})
	}
	if !c.closed {
		t.Error("slow consumer still connected with its queue full")
	}
	serveOne(s, c, IORequest{Op: OpStat, Seq: 999, LPN: 1}) // ignored, no panic
}

func TestReleasedRequestRecordsPanicWhenStepped(t *testing.T) {
	s, c := coreFixture(t)
	serveOne(s, c, IORequest{Op: OpWrite, Seq: 1, LPN: 3, Pages: 1})
	q := s.ioReqs.Get()
	if q == nil {
		t.Fatal("served write left no spare request record")
	}
	if q.c != nil || q.sess != nil {
		t.Error("released request record still references its connection or session")
	}
	mustPanic(t, "released server io request", func() { q.done(cubeftl.IOCompletion{}) })
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); r == nil || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

// The concurrent-client chaos run — live traffic through a power cut, a
// verified recovery, the acked-write audit — with every free list in the
// process capped at one record: request records, front-end commands and
// the device stack's op records are recycled at once or dropped for
// good, so one stepped after its release trips its liveness check.
func TestChaosWithRecycledRequestRecords(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	TestChaosConcurrentClients(t)
}

func BenchmarkServeIO(b *testing.B) {
	s, c := coreFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := uint8(OpRead + i&1)
		serveOne(s, c, IORequest{Op: op, Seq: uint64(i + 1), AckFloor: uint64(i), LPN: int64(i*37) % 2000, Pages: 1})
		c.spare <- <-c.out
	}
}

func BenchmarkReadFrame(b *testing.B) {
	stream := ioStream(1024)
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(stream) / 1024))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			rd.Reset(stream)
			br.Reset(rd)
		}
		frame, err := readFrame(br, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame[:0]
	}
}

// A durable write's reply carries the device clock it cost. A lone
// synchronous client is blocked on it and the array is idle, so the page
// leaves the write buffer at the DMA time: DMA, one padded program, one
// journal flush — about 0.7 ms where waiting out the 500 us flush timer
// first made it 1.2. A write and a read arriving together still go
// through one pump and leave in one batch.
func TestServedWriteDoesNotWaitOutTheFlushTimer(t *testing.T) {
	s, c := coreFixture(t)
	const limit = 800 * time.Microsecond
	for seq := uint64(1); seq <= 8; seq++ {
		serveOne(s, c, IORequest{Op: OpWrite, Seq: seq, AckFloor: seq - 1, LPN: int64(seq * 11), Pages: 1})
		b := <-c.out
		rep, err := ParseIOReply(b[5:])
		if err != nil || rep.Seq != seq || rep.Status != StatusOK {
			t.Fatalf("write %d answered %+v (%v)", seq, rep, err)
		}
		if lat := time.Duration(rep.LatencyNs); lat >= limit {
			t.Errorf("write %d cost %v of device clock, want under %v", seq, lat, limit)
		}
		c.spare <- b
	}

	batches := s.stats.Batches
	s.handleIO(c, IORequest{Op: OpWrite, Seq: 9, AckFloor: 8, LPN: 500, Pages: 1})
	s.handleIO(c, IORequest{Op: OpRead, Seq: 10, AckFloor: 8, LPN: 11, Pages: 1})
	s.pump()
	s.flushReplies()
	if got := s.stats.Batches - batches; got != 1 || len(c.out) != 1 {
		t.Fatalf("a write and a read took %d pumps and left in %d batches, want 1 and 1", got, len(c.out))
	}
	b := <-c.out
	const frameLen = 4 + 1 + 18
	if len(b) != 2*frameLen {
		t.Fatalf("batch is %d bytes, want two reply frames (%d)", len(b), 2*frameLen)
	}
	for off := 0; off < len(b); off += frameLen {
		rep, err := ParseIOReply(b[off+5 : off+frameLen])
		if err != nil || rep.Status != StatusOK {
			t.Fatalf("frame at %d: %+v (%v)", off, rep, err)
		}
		if lat := time.Duration(rep.LatencyNs); rep.Seq == 9 && lat >= limit {
			t.Errorf("the batched write cost %v of device clock, want under %v", lat, limit)
		}
	}
}
