package server

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"cubeftl"
)

func testConfig(slo bool) Config {
	return Config{
		Device: cubeftl.Options{
			FTL:            cubeftl.FTLCube,
			Channels:       2,
			DiesPerChannel: 2,
			BlocksPerChip:  32,
			Seed:           7,
			Recovery:       true,
		},
		Tenants: []TenantDef{
			{Name: "lat", Weight: 4, SLOReadP99: 2 * time.Millisecond},
			{Name: "bulk", Weight: 1},
		},
		DispatchWidth: 4,
		SLO:           SLOConfig{Enabled: slo},
	}
}

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv
}

func testClient(t *testing.T, srv *Server, tenant string) *Client {
	t.Helper()
	cl, err := Dial(ClientConfig{
		Addr:        srv.Addr().String(),
		Tenant:      tenant,
		RetryBudget: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestWriteReadStatThroughServer(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	defer srv.Close()
	cl := testClient(t, srv, "lat")
	defer cl.Close()

	if cl.CapacityPages <= 0 {
		t.Fatalf("capacity %d", cl.CapacityPages)
	}
	for lpn := int64(0); lpn < 32; lpn++ {
		if _, err := cl.Write(lpn, 1); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
	}
	for lpn := int64(0); lpn < 32; lpn++ {
		res, err := cl.Read(lpn, 1)
		if err != nil {
			t.Fatalf("read %d: %v", lpn, err)
		}
		if res.Latency <= 0 {
			t.Fatalf("read %d: non-positive simulated latency %v", lpn, res.Latency)
		}
		mapped, err := cl.Stat(lpn)
		if err != nil || !mapped {
			t.Fatalf("stat %d: mapped=%v err=%v", lpn, mapped, err)
		}
	}
	if mapped, err := cl.Stat(int64(cl.CapacityPages) - 1); err != nil || mapped {
		t.Fatalf("unwritten lpn reports mapped=%v err=%v", mapped, err)
	}
	if srv.AckedWrites() != 32 {
		t.Fatalf("ledger has %d acked writes, want 32", srv.AckedWrites())
	}
}

func TestAckedWritesSurvivePowerCutThroughServer(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	defer srv.Close()
	cl := testClient(t, srv, "lat")
	defer cl.Close()

	// Durably acknowledged before the cut: these must survive.
	acked := make([]int64, 0, 64)
	for lpn := int64(0); lpn < 64; lpn++ {
		if _, err := cl.Write(lpn, 1); err != nil {
			t.Fatalf("write %d: %v", lpn, err)
		}
		acked = append(acked, lpn)
	}
	checkIdle(t, srv, "before the cut")

	if err := srv.PowerCut(); err != nil {
		t.Fatal(err)
	}
	checkIdle(t, srv, "power cut")

	// A write issued while the device is down blocks in the client's
	// retry loop and completes after recovery — the client never sees
	// the outage as an error.
	done := make(chan error, 1)
	go func() {
		_, err := cl.Write(500, 1)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	checkIdle(t, srv, "client retrying against a dead device")
	rpt, err := srv.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkIdle(t, srv, "recovered")
	if !rpt.Verified {
		t.Fatal("recovery skipped verification")
	}
	if err := <-done; err != nil {
		t.Fatalf("write across outage: %v", err)
	}
	checkIdle(t, srv, "write across the outage")

	for _, lpn := range acked {
		mapped, err := cl.Stat(lpn)
		if err != nil {
			t.Fatalf("stat %d: %v", lpn, err)
		}
		if !mapped {
			t.Fatalf("acked write at lpn %d lost after power cut + recovery", lpn)
		}
	}
	if got, err := cl.Stat(500); err != nil || !got {
		t.Fatalf("post-recovery write not visible: mapped=%v err=%v", got, err)
	}
	st := srv.Stats()
	if st.PowerCuts != 1 || st.Recoveries != 1 {
		t.Fatalf("stats: %d cuts / %d recoveries", st.PowerCuts, st.Recoveries)
	}
	if st.Sessions != 1 {
		t.Fatalf("reconnect created a new session: %d sessions", st.Sessions)
	}
	checkIdle(t, srv, "after the audit")
}

// TestDuplicateWriteAckSuppression drives the raw protocol so the
// retry can be issued deliberately: a re-sent write seq must be
// acknowledged from the dedup window, flagged duplicate, and not
// re-executed.
func TestDuplicateWriteAckSuppression(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)

	frame, _ := AppendHello(nil, Hello{Tenant: "lat"})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	typ, body, err := ReadFrame(br, nil)
	if err != nil || typ != MsgHelloAck {
		t.Fatalf("hello ack: typ %d err %v", typ, err)
	}
	if ack, _ := ParseHelloAck(body); ack.Status != StatusOK {
		t.Fatalf("hello refused: %v", ack.Status)
	}

	sendIO := func(r IORequest) IOReply {
		t.Helper()
		if _, err := nc.Write(AppendIO(nil, r)); err != nil {
			t.Fatal(err)
		}
		typ, body, err := ReadFrame(br, nil)
		if err != nil || typ != MsgIOReply {
			t.Fatalf("io reply: typ %d err %v", typ, err)
		}
		rep, err := ParseIOReply(body)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	first := sendIO(IORequest{Op: OpWrite, Seq: 1, LPN: 10, Pages: 1})
	if first.Status != StatusOK || first.Flags&FlagDuplicate != 0 {
		t.Fatalf("first write: %+v", first)
	}
	// Identical retry: acked from the window, not re-executed.
	retry := sendIO(IORequest{Op: OpWrite, Seq: 1, LPN: 10, Pages: 1})
	if retry.Status != StatusOK || retry.Flags&FlagDuplicate == 0 {
		t.Fatalf("retry not dup-acked: %+v", retry)
	}
	// Pruning below the ack floor keeps suppression intact.
	second := sendIO(IORequest{Op: OpWrite, Seq: 2, AckFloor: 1, LPN: 11, Pages: 1})
	if second.Status != StatusOK {
		t.Fatalf("second write: %+v", second)
	}
	pruned := sendIO(IORequest{Op: OpWrite, Seq: 1, AckFloor: 1, LPN: 10, Pages: 1})
	if pruned.Status != StatusOK || pruned.Flags&FlagDuplicate == 0 {
		t.Fatalf("below-floor retry not dup-acked: %+v", pruned)
	}
	if st := srv.Stats(); st.Duplicates != 2 {
		t.Fatalf("server counted %d duplicates, want 2", st.Duplicates)
	}
	if st := srv.Stats(); st.Writes != 2 {
		t.Fatalf("server executed %d writes, want 2", st.Writes)
	}
}

// A pipelining client — one connection, eight writes sent before any
// reply is read — gets eight durable acks, and every page survives a
// power cut: the core submits what it drained from the wire and pumps
// the device until all of it completes.
func TestPipeliningClientGetsDurableAcks(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	defer srv.Close()

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	frame, _ := AppendHello(nil, Hello{Tenant: "bulk"})
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	if typ, body, err := ReadFrame(br, nil); err != nil || typ != MsgHelloAck {
		t.Fatalf("hello ack: typ %d err %v", typ, err)
	} else if ack, _ := ParseHelloAck(body); ack.Status != StatusOK {
		t.Fatalf("hello refused: %v", ack.Status)
	}

	const n = 8
	for seq := uint64(1); seq <= n; seq++ {
		if _, err := nc.Write(AppendIO(nil, IORequest{Op: OpWrite, Seq: seq, LPN: int64(100 + seq), Pages: 1})); err != nil {
			t.Fatal(err)
		}
	}
	acked := map[uint64]bool{}
	for len(acked) < n {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, body, err := ReadFrame(br, nil)
		if err != nil || typ != MsgIOReply {
			t.Fatalf("reply %d: typ %d err %v", len(acked)+1, typ, err)
		}
		rep, err := ParseIOReply(body)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status != StatusOK || rep.Flags&FlagDuplicate != 0 || rep.Seq < 1 || rep.Seq > n || acked[rep.Seq] {
			t.Fatalf("reply %+v after %d acks", rep, len(acked))
		}
		acked[rep.Seq] = true
	}
	if st := srv.Stats(); st.Writes != n {
		t.Fatalf("server executed %d writes, want %d", st.Writes, n)
	}

	rpt, err := srv.Restart()
	if err != nil || !rpt.Verified {
		t.Fatalf("restart: verified=%v err=%v", rpt.Verified, err)
	}
	cl := testClient(t, srv, "bulk")
	defer cl.Close()
	for seq := uint64(1); seq <= n; seq++ {
		if mapped, err := cl.Stat(int64(100 + seq)); err != nil || !mapped {
			t.Fatalf("lpn %d acked, after the restart: mapped=%v err=%v", 100+seq, mapped, err)
		}
	}
}

func TestTerminalErrorsThroughServer(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	defer srv.Close()
	cl := testClient(t, srv, "lat")
	defer cl.Close()

	// Out-of-range LPN: INVALID_ARGUMENT, no retry storm.
	if _, err := cl.Write(cl.CapacityPages+10, 1); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if cl.Stats.Retries != 0 {
		t.Fatalf("terminal error burned %d retries", cl.Stats.Retries)
	}
	// The session survives a terminal error.
	if _, err := cl.Write(0, 1); err != nil {
		t.Fatalf("write after terminal error: %v", err)
	}
	// Unknown tenant: refused permanently at Hello.
	if _, err := Dial(ClientConfig{
		Addr: srv.Addr().String(), Tenant: "nope", RetryBudget: 2 * time.Second,
	}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("unknown tenant: %v", err)
	}
}

// An idle client hears the server go: its next call reads the
// GOINGDOWN the server sent before closing the connection, and fails at
// once with ErrServerClosed instead of redialing for its retry budget.
func TestGracefulCloseNotifiesClients(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	cl := testClient(t, srv, "bulk")
	defer cl.Close()
	if _, err := cl.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * idleAfter)
	start := time.Now()
	_, err := cl.Write(2, 1)
	if !errors.Is(err, ErrServerClosed) {
		t.Fatalf("write to closed server: %v, want ErrServerClosed", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the write took %v to fail, want the notice read at once", took)
	}
	if cl.Stats.Dials != 1 {
		t.Errorf("%d dials, want the first one only", cl.Stats.Dials)
	}
}

// An idle client hears a restart too: the notice drops the connection,
// and the call redials the recovered server on its first attempt.
func TestRestartNotifiesIdleClients(t *testing.T) {
	srv := startTestServer(t, testConfig(false))
	defer srv.Close()
	cl := testClient(t, srv, "bulk")
	defer cl.Close()
	if _, err := cl.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Restart(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * idleAfter)
	if _, err := cl.Write(2, 1); err != nil {
		t.Fatal(err)
	}
	if cl.Stats.Retries != 0 || cl.Stats.Unavailables != 0 || cl.Stats.Dials != 2 {
		t.Errorf("stats %+v, want one redial and no failed attempt", cl.Stats)
	}
}
