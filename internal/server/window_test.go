package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// The batch window (DESIGN.md §13): an upper bound on the wait for more
// requests, left the moment no session-bound connection is without a
// command in flight. Server.idle is the count that rule reads.

// idleInvariant recounts Server.idle from the connection table. Core-only:
// call it through checkIdle on a started server.
func idleInvariant(s *Server) error {
	n := 0
	for c := range s.conns {
		switch {
		case c.closed:
			return fmt.Errorf("closed connection still in the table")
		case c.inflight < 0:
			return fmt.Errorf("connection has %d commands in flight", c.inflight)
		case c.sess != nil && c.inflight == 0:
			n++
		}
	}
	if n != s.idle {
		return fmt.Errorf("idle count %d, but %d of %d open connections have a session and nothing in flight", s.idle, n, len(s.conns))
	}
	return nil
}

// checkIdle runs idleInvariant on the core goroutine, between two requests.
func checkIdle(t *testing.T, s *Server, step string) {
	t.Helper()
	var err error
	s.do(func() { err = idleInvariant(s) })
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// watchIdle checks the invariant every millisecond until stop is called
// (or the test ends); stop reports how often it looked.
func watchIdle(t *testing.T, s *Server) (stop func() int) {
	t.Helper()
	quit, done := make(chan struct{}), make(chan struct{})
	looks := 0
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case <-time.After(time.Millisecond):
			}
			var err error
			s.do(func() { err = idleInvariant(s) })
			if err != nil {
				t.Errorf("mid-traffic: %v", err)
			}
			looks++
		}
	}()
	var once sync.Once
	stop = func() int {
		once.Do(func() { close(quit) })
		<-done
		return looks
	}
	t.Cleanup(func() { stop() })
	return stop
}

// A lone synchronous client is all the sessions there are: once its
// command is in, nobody can join the batch, and the window — fifty
// milliseconds here, twenty-five seconds over 500 operations if waited
// out — is not opened at all.
func TestWindowClosesWhenEverySessionIsIn(t *testing.T) {
	cfg := testConfig(false)
	cfg.BatchWindow = 50 * time.Millisecond
	srv := startTestServer(t, cfg)
	defer srv.Close()
	cl := testClient(t, srv, "lat")
	defer cl.Close()

	const ops = 500
	base := srv.Stats()
	start := time.Now()
	for i := int64(0); i < ops; i++ {
		var err error
		if i%2 == 0 {
			_, err = cl.Write(i, 1)
		} else {
			_, err = cl.Read(i-1, 1)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("%d sequential operations took %v: the core waits out the %v window", ops, took, cfg.BatchWindow)
	}
	st := srv.Stats()
	if got := st.WindowAllIn - base.WindowAllIn; got < ops {
		t.Errorf("%d windows ended with every session in, want at least %d", got, ops)
	}
	if st.WindowTimeouts != base.WindowTimeouts {
		t.Errorf("%d windows timed out under a lone client", st.WindowTimeouts-base.WindowTimeouts)
	}
	if got, want := st.BatchedRequests-base.BatchedRequests, int64(ops); got != want {
		t.Errorf("%d requests counted into batches, want %d", got, want)
	}
	if got := st.Batches - base.Batches; got < 1 || got > ops {
		t.Errorf("%d batches pumped for %d requests", got, ops)
	}
	checkIdle(t, srv, "after the run")
}

// A second session that stays silent could still send, so the core holds
// the window open for it: the timer is the way out, and the talking
// client's operations complete all the same.
func TestWindowTimesOutForASilentSession(t *testing.T) {
	cfg := testConfig(false)
	cfg.BatchWindow = 2 * time.Millisecond
	srv := startTestServer(t, cfg)
	defer srv.Close()
	talker := testClient(t, srv, "lat")
	defer talker.Close()
	silent := testClient(t, srv, "bulk")
	defer silent.Close()

	base := srv.Stats()
	for i := int64(0); i < 20; i++ {
		if _, err := talker.Write(i, 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if got := st.WindowTimeouts - base.WindowTimeouts; got < 10 {
		t.Errorf("%d windows timed out over 20 writes next to a silent session, want most of them", got)
	}
	checkIdle(t, srv, "talker done")

	// The silent client leaves: the talker is every session again.
	silent.Close()
	for deadline := time.Now().Add(5 * time.Second); ; {
		var conns int
		srv.do(func() { conns = len(srv.conns) })
		if conns == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the silent client's disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	base = srv.Stats()
	for i := int64(0); i < 20; i++ {
		if _, err := talker.Write(i, 1); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.WindowTimeouts != base.WindowTimeouts {
		t.Errorf("%d windows timed out with the silent session gone", st.WindowTimeouts-base.WindowTimeouts)
	}
	checkIdle(t, srv, "silent client gone")
}

// A connect, a Hello or a disconnect starts no batch: only an IO command
// holds the core for the sessions that could join it. A client that
// dials, opens its session and leaves beside an idle one must not wait
// out a window, nor make the core do so.
func TestSessionTrafficOpensNoWindow(t *testing.T) {
	cfg := testConfig(false)
	cfg.BatchWindow = 50 * time.Millisecond
	srv := startTestServer(t, cfg)
	defer srv.Close()
	idle := testClient(t, srv, "lat")
	defer idle.Close()
	checkIdle(t, srv, "idle session open")

	base := srv.Stats()
	for i := 0; i < 3; i++ {
		visitor := testClient(t, srv, "bulk")
		visitor.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		var conns int
		srv.do(func() { conns = len(srv.conns) })
		if conns == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never noticed the visitors' disconnects")
		}
		time.Sleep(time.Millisecond)
	}
	// A window the visitors opened would still be open: the calls above
	// are served inside it. Let it run out.
	time.Sleep(2 * cfg.BatchWindow)
	if st := srv.Stats(); st.WindowTimeouts != base.WindowTimeouts || st.WindowAllIn != base.WindowAllIn {
		t.Errorf("three visitors beside an idle session opened %d windows (%d timed out), want none",
			st.WindowAllIn-base.WindowAllIn+st.WindowTimeouts-base.WindowTimeouts, st.WindowTimeouts-base.WindowTimeouts)
	}
	checkIdle(t, srv, "visitors gone")
}

// The idle count through every way a connection enters and leaves it,
// driven by hand on the core: session binding and re-binding, refusals,
// replies made on the spot, completions, a close with commands in flight,
// a power cut and a recovery.
func TestIdleCountInvariant(t *testing.T) {
	s, c := coreFixture(t)
	newConn := func() *conn {
		near, far := net.Pipe()
		t.Cleanup(func() { near.Close(); far.Close() })
		c := &conn{nc: near, out: make(chan []byte, 256), spare: make(chan []byte, 2)}
		s.handle(request{kind: kindConnect, c: c})
		return c
	}
	seq := uint64(0)
	io := func(c *conn, op uint8, lpn int64) {
		seq++
		s.handle(request{kind: kindIO, c: c, io: IORequest{Op: op, Seq: seq, LPN: lpn, Pages: 1}})
	}
	want := func(step string, idle int) {
		t.Helper()
		if err := idleInvariant(s); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if s.idle != idle {
			t.Fatalf("%s: idle count %d, want %d", step, s.idle, idle)
		}
	}

	want("one session", 1)
	s.handle(request{kind: kindHello, c: c, hello: Hello{ClientID: c.sess.id, Tenant: "bulk"}})
	want("Hello again on a bound connection", 1)

	c2 := newConn()
	want("connection without a session", 1)
	s.handle(request{kind: kindHello, c: c2, hello: Hello{Tenant: "nobody"}})
	want("Hello refused", 1)
	s.handle(request{kind: kindHello, c: c2, hello: Hello{Tenant: "lat"}})
	want("second session", 2)

	io(c, OpStat, 1)
	want("stat answered on the spot", 2)
	io(c, OpRead, int64(s.dev.LogicalPages())+5)
	want("submit refused", 2)
	if s.stats.Rejects != 1 {
		t.Fatalf("%d rejects, want the out-of-range read", s.stats.Rejects)
	}

	io(c, OpWrite, 3)
	dup := seq
	want("write in flight", 1)
	io(c, OpRead, 4)
	want("second command on the same connection", 1)
	io(c2, OpRead, 5)
	want("every session in", 0)
	s.pump()
	s.flushReplies()
	want("pumped", 2)
	s.handle(request{kind: kindIO, c: c, io: IORequest{Op: OpWrite, Seq: dup, LPN: 3, Pages: 1}})
	want("duplicate acked on the spot", 2)
	if s.stats.Duplicates != 1 {
		t.Fatalf("%d duplicates, want 1", s.stats.Duplicates)
	}

	// A connection closed with commands in flight: they complete into a
	// closed connection and must not count it back in.
	io(c2, OpRead, 6)
	io(c2, OpWrite, 7)
	want("two in flight", 1)
	s.handle(request{kind: kindDisconnect, c: c2})
	want("closed mid-flight", 1)
	s.pump()
	s.flushReplies()
	want("completions of a closed connection", 1)
	if c2.inflight != 0 {
		t.Fatalf("closed connection left with %d in flight", c2.inflight)
	}
	io(c2, OpRead, 8) // a request its reader had already queued
	s.pump()
	want("request from a closed connection", 1)

	// Power cut with a command in flight: every connection drops.
	io(c, OpWrite, 9)
	want("in flight at the cut", 0)
	if err := s.PowerCut(); err != nil { // never started: do runs it here
		t.Fatal(err)
	}
	want("power cut", 0)
	if len(s.conns) != 0 {
		t.Fatalf("%d connections survived the cut", len(s.conns))
	}
	c3 := newConn()
	s.handle(request{kind: kindHello, c: c3, hello: Hello{Tenant: "lat"}})
	want("Hello while down", 0)
	if s.stats.Unavailables != 1 {
		t.Fatalf("%d unavailables, want the Hello", s.stats.Unavailables)
	}
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.handle(request{kind: kindHello, c: c3, hello: Hello{ClientID: c.sess.id, Tenant: "lat"}})
	want("session resumed after recovery", 1)
	io(c3, OpRead, 3)
	want("in flight after recovery", 0)
	s.pump()
	s.flushReplies()
	want("pumped after recovery", 1)
	s.dropConns(DownShutdown)
	want("all dropped", 0)
}
