package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cubeftl"
	"cubeftl/internal/pool"
	"cubeftl/internal/telemetry"
)

// TenantDef declares one tenant of the block service: its queue-pair
// QoS parameters and (optionally) a read-p99 SLO the online controller
// enforces.
type TenantDef struct {
	Name     string
	Depth    int     // submission queue depth (default 32)
	Weight   int     // WRR share (>= 1)
	Priority int     // strict-priority class ("prio" arbiter)
	RateIOPS float64 // static token-bucket cap; 0 = unlimited
	// SLOReadP99 marks the tenant protected: the SLO controller keeps
	// its windowed read p99 under this bound by escalating its weight
	// and throttling best-effort tenants. 0 = best-effort.
	SLOReadP99 time.Duration
}

// Config assembles a block server.
type Config struct {
	// Device configures the simulated SSD. Set Device.Recovery for the
	// full contract: durable write acks, checkpoint on shutdown, and
	// PowerCut/Recover support.
	Device cubeftl.Options
	// Tenants declares the queue pairs; a client's Hello names one.
	Tenants []TenantDef
	// Arbiter is the queue arbitration policy (default ArbWRR).
	Arbiter string
	// DispatchWidth bounds commands concurrently outstanding at the
	// device across all tenants (0 = sum of queue depths).
	DispatchWidth int
	// SLO configures the online latency controller.
	SLO SLOConfig
	// BatchWindow is how long (wall clock) the core waits at most after a
	// request arrives for more to join the batch before advancing the
	// simulation — NVMe-style doorbell coalescing. Requests that arrive
	// within one window contend in simulated time the way concurrently
	// submitted commands contend in a real device. The wait ends early
	// once every session has a command in flight: nobody is left who
	// could join. 0 (or less) selects DefaultBatchWindow.
	BatchWindow time.Duration
	// PrefillPages sequentially writes this many logical pages before
	// serving so traffic lands on a steady-state device.
	PrefillPages int64
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// MetricsAddr serves /metrics (Prometheus text exposition),
	// /healthz, and /readyz on this address (e.g. "127.0.0.1:9100");
	// empty disables the observability endpoint. See DESIGN.md §16.
	MetricsAddr string
	// EventsOut streams the structured event log (SLO decisions, chaos
	// ops, recovery verdicts, block retirements) as JSONL. nil keeps
	// events in memory only; they remain readable via Server.Events.
	EventsOut io.Writer
	// SpanSample sets the device telemetry span-sampling period used
	// when the observability plane is on (0 = 1-in-16; 1 = trace every
	// command's stage attribution).
	SpanSample int
}

// Stats counts server-level events. All fields are owned by the core
// goroutine; read them through Server.Stats.
type Stats struct {
	Conns        int64 `metric:"server/conns_total counter connections accepted"` // over the server's life
	Sessions     int64 `metric:"server/sessions_total counter sessions created"`
	Reads        int64 `metric:"server/reads_total counter read commands"`
	Writes       int64 `metric:"server/writes_total counter write commands"`
	Stats        int64 `metric:"server/stat_probes_total counter OpStat probes"`
	Duplicates   int64 `metric:"server/duplicates_total counter write acks served from the dedup window"`
	Rejects      int64 `metric:"server/rejects_total counter non-OK, non-duplicate replies"`
	Unavailables int64 `metric:"server/unavailables_total counter replies refused while down"`
	PowerCuts    int64 `metric:"server/power_cuts_total counter power cuts injected"`
	Recoveries   int64 `metric:"server/recoveries_total counter successful recoveries"`

	// Coalescing: BatchedRequests commands shared Batches pumps of the
	// device. A batch window ends one of two ways — every session had a
	// command in flight (or the window was never opened because they
	// already had), or the timer ran out with a session still silent.
	Batches         int64 `metric:"server/batches_total counter pumps of the device with commands outstanding"`
	BatchedRequests int64 `metric:"server/batched_requests_total counter commands submitted into those pumps"`
	WindowAllIn     int64 `metric:"server/window_all_in_total counter batch windows skipped or left early: every session had a command in flight"`
	WindowTimeouts  int64 `metric:"server/window_timeouts_total counter batch windows waited out with a session still silent"`
}

// session is one client's server-side state: its tenant queue binding
// and the write-dedup window that makes retries idempotent. Sessions
// survive disconnects and in-process recovery (they live in server
// RAM, not on the device); they do not survive a server process
// restart, which is safe because page writes are idempotent.
type session struct {
	id     uint64
	tenant string
	queue  int

	// floor is the contiguous-acked high-water mark (client-advanced);
	// acked holds acked write seqs above it. A write seq in either set
	// was durably acknowledged and must not be re-executed.
	floor uint64
	acked map[uint64]struct{}
}

func (ss *session) isAcked(seq uint64) bool {
	if seq <= ss.floor {
		return true
	}
	_, ok := ss.acked[seq]
	return ok
}

func (ss *session) ack(seq uint64) {
	if seq > ss.floor {
		ss.acked[seq] = struct{}{}
	}
}

func (ss *session) prune(floor uint64) {
	if floor <= ss.floor {
		return
	}
	ss.floor = floor
	for seq := range ss.acked {
		if seq <= floor {
			delete(ss.acked, seq)
		}
	}
}

// request kinds flowing from connection readers to the core.
const (
	kindConnect = iota
	kindDisconnect
	kindHello
	kindIO
)

type request struct {
	kind  int
	c     *conn
	hello Hello
	io    IORequest
}

// conn is one client connection. The reader goroutine parses frames
// into requests; the writer goroutine drains out. Everything below
// "Core-owned" belongs to the core goroutine.
type conn struct {
	nc net.Conn
	// out carries reply batches to the writer: every frame the core
	// produced for this connection since the last flush, in one buffer,
	// written with one write. Its capacity is how many unwritten batches
	// a client may fall behind by before it is shed as a slow consumer.
	out chan []byte
	// spare hands written buffers back to the core: one in the core's
	// hands and one in the writer's is the steady state.
	spare chan []byte

	// Core-owned.
	sess     *session
	closed   bool
	inflight int    // commands submitted to the front end, not yet completed
	pend     []byte // reply frames staged since the last flush
}

// idle reports whether the batch window is worth holding open for c: an
// open connection with a session and no command in flight is one whose
// client may still send. Server.idle counts them.
func (c *conn) idle() bool { return !c.closed && c.sess != nil && c.inflight == 0 }

// stage returns c's staged-reply buffer for one more frame to be
// appended (the caller stores the result back in c.pend), queueing the
// connection for the next flush. Core-only.
func (s *Server) stage(c *conn) []byte {
	if len(c.pend) == 0 {
		s.dirty = append(s.dirty, c)
	}
	return c.pend
}

func (s *Server) replyIO(c *conn, r IOReply) {
	if !c.closed {
		c.pend = AppendIOReply(s.stage(c), r)
	}
}

func (s *Server) replyHello(c *conn, a HelloAck) {
	if !c.closed {
		c.pend = AppendHelloAck(s.stage(c), a)
	}
}

// flushReplies hands every connection's staged replies to its writer:
// one buffer, so one write, per connection. Core-only.
func (s *Server) flushReplies() {
	for i, c := range s.dirty {
		s.flushConn(c)
		s.dirty[i] = nil
	}
	s.dirty = s.dirty[:0]
}

// flushConn enqueues c's staged replies for the writer, dropping the
// connection instead of blocking if the client stops draining.
func (s *Server) flushConn(c *conn) {
	if c.closed || len(c.pend) == 0 {
		return
	}
	select {
	case c.out <- c.pend:
		select {
		case b := <-c.spare:
			c.pend = b[:0]
		default:
			c.pend = nil
		}
	default:
		s.closeConn(c) // slow consumer: shed it rather than stall the core
	}
}

// closeLinger bounds how long a closed connection's writer goes on
// sending what was queued before it — a GOINGDOWN notice — to a client
// that has stopped reading.
const closeLinger = time.Second

// closeConn tears a connection down, handing the writer whatever is
// still staged (a GoingDown notice) if it has room. The writer sends
// what it holds and then closes the socket: closing it here would race
// the notice out of the socket before it was written. Core-only;
// idempotent.
func (s *Server) closeConn(c *conn) {
	if c.closed {
		return
	}
	if c.idle() {
		s.idle--
	}
	c.closed = true
	delete(s.conns, c)
	if len(c.pend) > 0 {
		select {
		case c.out <- c.pend:
		default:
		}
		c.pend = nil
	}
	close(c.out)
	c.nc.SetWriteDeadline(time.Now().Add(closeLinger))
}

// ioReq is one read or write between handleIO and its completion: what
// the reply needs, pooled, with the completion handed to the front end
// bound once.
type ioReq struct {
	s    *Server
	live bool

	c     *conn
	sess  *session
	seq   uint64
	queue int
	write bool

	onDone func(cubeftl.IOCompletion)
}

func (s *Server) getIOReq() *ioReq {
	q := s.ioReqs.Get()
	if q == nil {
		q = &ioReq{s: s}
		q.onDone = q.done
	}
	q.live = true
	return q
}

func (q *ioReq) release() {
	q.live = false
	q.c, q.sess = nil, nil
	q.s.ioReqs.Put(q)
}

// done stages the reply for a completed command, and does nothing else:
// it runs inside FrontEnd.Pump, which the core may not submit into.
// Under Options.Recovery a write completes only once its page is
// programmed — the ack a client may trust across power loss.
func (q *ioReq) done(ic cubeftl.IOCompletion) {
	pool.CheckLive(q.live, "server io request")
	s, c, sess, seq, queue, write := q.s, q.c, q.sess, q.seq, q.queue, q.write
	q.release()
	if c.inflight--; c.idle() {
		s.idle++
	}
	if write && ic.RejectedPages > 0 {
		// Device-wide read-only degrade: the write did not land.
		s.stats.Rejects++
		s.replyIO(c, IOReply{Seq: seq, Status: StatusFailedPrecondition, LatencyNs: ic.LatencyNs})
		return
	}
	if write {
		sess.ack(seq)
	}
	s.slo.observe(queue, write, ic.LatencyNs)
	s.obsObserve(queue, write, ic.LatencyNs)
	s.replyIO(c, IOReply{Seq: seq, Status: StatusOK, LatencyNs: ic.LatencyNs})
}

// Server is the live-traffic block service. One core goroutine owns
// the simulated device, its persistent front end, the session table,
// and the SLO controller; connection goroutines only parse and
// serialize frames.
type Server struct {
	cfg  Config
	logf func(string, ...any)

	dev     *cubeftl.SSD
	fe      *cubeftl.FrontEnd
	slo     *sloController
	queueOf map[string]int

	ln    net.Listener
	reqCh chan request
	ctlCh chan func()
	quit  chan struct{}
	wg    sync.WaitGroup

	// Core-owned.
	conns      map[*conn]struct{}
	sessions   map[uint64]*session
	nextClient uint64
	up         bool
	draining   bool
	stats      Stats
	dirty      []*conn // connections with staged replies
	// idle counts the connections in conns for which conn.idle holds: the
	// clients that could still add a command to the batch being gathered.
	idle   int
	window *time.Timer // the batch window: armed at most once per batch
	ioReqs pool.FreeList[ioReq]

	// Observability plane (obs.go). events is always non-nil; obsSrv
	// and obsWin only when Config.MetricsAddr is set.
	events *telemetry.EventLog
	obsSrv *telemetry.ObsServer
	obsWin []obsWindow

	// Knob positions captured at power cut, re-applied on recovery.
	savedWeights []int
	savedRates   []float64
}

// New builds the server and its device. Call Start to serve.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: at least one tenant required")
	}
	if cfg.Arbiter == "" {
		cfg.Arbiter = cubeftl.ArbWRR
	}
	if cfg.BatchWindow <= 0 {
		cfg.BatchWindow = DefaultBatchWindow
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dev, err := cubeftl.New(cfg.Device)
	if err != nil {
		return nil, err
	}
	if cfg.PrefillPages > 0 {
		dev.Prefill(cfg.PrefillPages)
		dev.ResetStats()
	}
	s := &Server{
		cfg:      cfg,
		logf:     logf,
		dev:      dev,
		queueOf:  make(map[string]int, len(cfg.Tenants)),
		reqCh:    make(chan request, 1024),
		ctlCh:    make(chan func(), 16),
		quit:     make(chan struct{}),
		conns:    make(map[*conn]struct{}),
		sessions: make(map[uint64]*session),
		up:       true,
	}
	for i, td := range cfg.Tenants {
		if td.Name == "" {
			return nil, fmt.Errorf("server: tenant %d has no name", i)
		}
		if _, dup := s.queueOf[td.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", td.Name)
		}
		s.queueOf[td.Name] = i
	}
	if s.fe, err = s.attachFrontEnd(); err != nil {
		return nil, err
	}
	s.slo = newSLOController(cfg.SLO, s.fe, cfg.Tenants)
	s.initObs()
	return s, nil
}

func (s *Server) attachFrontEnd() (*cubeftl.FrontEnd, error) {
	specs := make([]cubeftl.QueueSpec, len(s.cfg.Tenants))
	for i, td := range s.cfg.Tenants {
		specs[i] = cubeftl.QueueSpec{
			Name:     td.Name,
			Depth:    td.Depth,
			Weight:   td.Weight,
			Priority: td.Priority,
			RateIOPS: td.RateIOPS,
		}
	}
	return s.dev.AttachFrontEnd(specs, s.cfg.Arbiter, s.cfg.DispatchWidth)
}

// Start listens on addr (e.g. "127.0.0.1:0") and begins serving.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if err := s.startObsServer(); err != nil {
		ln.Close()
		return err
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.coreLoop()
	s.logf("cubeserved: serving %d tenants on %s (%.1f GiB logical)",
		len(s.cfg.Tenants), ln.Addr(), float64(s.dev.CapacityBytes())/(1<<30))
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Device returns the underlying SSD. Touch it only through do() —
// i.e. from tests that have stopped the server.
func (s *Server) Device() *cubeftl.SSD { return s.dev }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{nc: nc, out: make(chan []byte, 256), spare: make(chan []byte, 2)}
		s.wg.Add(2)
		go s.readLoop(c)
		go s.writeLoop(c)
	}
}

func (s *Server) readLoop(c *conn) {
	defer s.wg.Done()
	s.enqueue(request{kind: kindConnect, c: c})
	// One buffered reader (a frame is one read, not a header read and a
	// body read) and one frame buffer for the life of the connection.
	br := bufio.NewReader(c.nc)
	var buf []byte
	for {
		frame, err := readFrame(br, buf)
		if err != nil {
			break
		}
		buf = frame[:0]
		body := frame[1:]
		switch frame[0] {
		case MsgHello:
			h, err := ParseHello(body)
			if err != nil {
				s.enqueue(request{kind: kindDisconnect, c: c})
				return
			}
			s.enqueue(request{kind: kindHello, c: c, hello: h})
		case MsgIO:
			r, err := ParseIO(body)
			if err != nil {
				s.enqueue(request{kind: kindDisconnect, c: c})
				return
			}
			s.enqueue(request{kind: kindIO, c: c, io: r})
		default:
			// Unknown client frame: protocol violation.
			s.enqueue(request{kind: kindDisconnect, c: c})
			return
		}
	}
	s.enqueue(request{kind: kindDisconnect, c: c})
}

// enqueue delivers a request unless the server is quitting (the core
// loop has stopped draining reqCh).
func (s *Server) enqueue(r request) {
	select {
	case s.reqCh <- r:
	case <-s.quit:
	}
}

func (s *Server) writeLoop(c *conn) {
	defer s.wg.Done()
	defer c.nc.Close() // also ends readLoop
	for batch := range c.out {
		if _, err := c.nc.Write(batch); err != nil {
			// Keep draining so the core's sends never block.
			for range c.out {
			}
			return
		}
		select {
		case c.spare <- batch:
		default: // the core has spares enough
		}
	}
}

// coreLoop is the single goroutine that owns the simulation. It
// alternates between absorbing requests/control ops and pumping the
// device until all submitted I/O completes.
func (s *Server) coreLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case fn := <-s.ctlCh:
			fn()
		case r := <-s.reqCh:
			s.handle(r)
			if r.kind == kindIO {
				s.gather()
			}
		drain:
			for {
				select {
				case r := <-s.reqCh:
					s.handle(r)
				case fn := <-s.ctlCh:
					fn()
				default:
					break drain
				}
			}
			s.pump()
			s.flushReplies()
		}
	}
}

// gather holds open the batch an IO request has just started, so that
// concurrent clients' requests land in the same simulated instant. The
// batch window is an upper bound on that wait, worth sitting out only
// while some session could still send: with none idle the window is not
// opened, and it is left the moment the last one's command is in.
func (s *Server) gather() {
	if s.idle > 0 {
		// Every way out of the loop below leaves the timer stopped or
		// fired with its channel empty, so Reset is safe.
		if w := s.cfg.BatchWindow; s.window == nil {
			s.window = time.NewTimer(w)
		} else {
			s.window.Reset(w)
		}
		for s.idle > 0 {
			select {
			case r := <-s.reqCh:
				s.handle(r)
			case fn := <-s.ctlCh:
				fn()
			case <-s.window.C:
				s.stats.WindowTimeouts++
				return
			}
		}
		if !s.window.Stop() {
			// Fired while the last request was being handled. The receive
			// must not block: from go 1.23 on a stopped timer's channel
			// stays empty.
			select {
			case <-s.window.C:
			default:
			}
		}
	}
	s.stats.WindowAllIn++
}

// pump runs the batch coreLoop has drained from reqCh to completion,
// then lets the SLO controller act. The replies of the commands that
// complete are staged per connection; the caller flushes them once the
// pump is over. FrontEnd.Pump's contract — nothing is submitted until it
// returns — the core keeps by construction: it submits from handle
// alone, and completions only stage replies. The device reads the
// contract as "no more pages are coming" and sends a partial word line
// at once.
func (s *Server) pump() {
	if !s.up || s.fe == nil {
		return
	}
	if s.fe.Outstanding() > 0 {
		s.stats.Batches++
		s.fe.Pump()
	}
	s.slo.maybeDecide(s.dev.Now())
}

// DefaultBatchWindow is the coalescing window Config.BatchWindow 0 selects.
const DefaultBatchWindow = 200 * time.Microsecond

// do runs fn on the core goroutine and waits for it — the only safe
// way for another goroutine (chaos harness, admin, signal handler) to
// touch the device.
func (s *Server) do(fn func()) {
	done := make(chan struct{})
	select {
	case s.ctlCh <- func() { fn(); close(done) }:
		<-done
	case <-s.quit:
	}
}

func (s *Server) handle(r request) {
	switch r.kind {
	case kindConnect:
		s.conns[r.c] = struct{}{}
		s.stats.Conns++
	case kindDisconnect:
		s.closeConn(r.c)
	case kindHello:
		s.handleHello(r.c, r.hello)
	case kindIO:
		s.handleIO(r.c, r.io)
	}
	// What a request is answered with on the spot (a stat, a duplicate
	// ack, a refusal) goes out now, not after the batch window.
	s.flushReplies()
}

func (s *Server) handleHello(c *conn, h Hello) {
	qid, ok := s.queueOf[h.Tenant]
	if !ok {
		s.replyHello(c, HelloAck{Status: StatusInvalidArgument})
		return
	}
	if !s.up {
		s.stats.Unavailables++
		s.replyHello(c, HelloAck{Status: StatusUnavailable})
		return
	}
	id := h.ClientID
	if id == 0 {
		s.nextClient++
		id = s.nextClient
	} else if id > s.nextClient {
		// Resume across a server process restart: never re-issue the ID.
		s.nextClient = id
	}
	sess := s.sessions[id]
	if sess == nil {
		sess = &session{id: id, tenant: h.Tenant, queue: qid, acked: make(map[uint64]struct{})}
		s.sessions[id] = sess
		s.stats.Sessions++
	}
	// A resumed session keeps its dedup window; the tenant binding
	// follows the client's current Hello.
	sess.tenant, sess.queue = h.Tenant, qid
	was := c.idle()
	if c.sess = sess; !was && c.idle() {
		s.idle++
	}
	s.replyHello(c, HelloAck{
		Status:        StatusOK,
		ClientID:      id,
		CapacityPages: int64(s.dev.LogicalPages()),
		Queue:         uint32(qid),
	})
}

func (s *Server) handleIO(c *conn, r IORequest) {
	sess := c.sess
	if sess == nil {
		s.closeConn(c) // I/O before Hello: protocol violation
		return
	}
	sess.prune(r.AckFloor)
	if !s.up {
		s.stats.Unavailables++
		s.replyIO(c, IOReply{Seq: r.Seq, Status: StatusUnavailable})
		return
	}
	pages := int(r.Pages)
	if pages < 1 {
		pages = 1
	}
	switch r.Op {
	case OpStat:
		s.stats.Stats++
		mapped, err := s.dev.IsMapped(r.LPN)
		rep := IOReply{Seq: r.Seq, Status: StatusFromError(err)}
		if mapped {
			rep.Flags |= FlagMapped
		}
		s.replyIO(c, rep)

	case OpWrite:
		if sess.isAcked(r.Seq) {
			// Idempotent retry: the write was durably acknowledged in a
			// previous attempt (possibly on a connection that died before
			// the ack reached the client). Ack again without touching
			// the device.
			s.stats.Duplicates++
			s.replyIO(c, IOReply{Seq: r.Seq, Status: StatusOK, Flags: FlagDuplicate})
			return
		}
		s.stats.Writes++
		s.submit(c, sess, r, pages, true)

	case OpRead:
		s.stats.Reads++
		s.submit(c, sess, r, pages, false)
	}
}

// submit queues one read or write at the front end; its reply is staged
// by ioReq.done when the command completes, or here if it is refused.
func (s *Server) submit(c *conn, sess *session, r IORequest, pages int, write bool) {
	q := s.getIOReq()
	q.c, q.sess, q.seq, q.queue, q.write = c, sess, r.Seq, sess.queue, write
	if err := s.fe.Submit(sess.queue, write, r.LPN, pages, q.onDone); err != nil {
		q.release()
		s.replyErr(c, r.Seq, err)
		return
	}
	s.stats.BatchedRequests++
	if c.idle() {
		s.idle--
	}
	c.inflight++
}

func (s *Server) replyErr(c *conn, seq uint64, err error) {
	st := StatusFromError(err)
	if st == StatusOK {
		st = StatusInternal
	}
	s.stats.Rejects++
	s.replyIO(c, IOReply{Seq: seq, Status: st})
}

// dropConns notifies and closes every connection. Core-only.
func (s *Server) dropConns(reason uint8) {
	for c := range s.conns {
		c.pend = AppendGoingDown(s.stage(c), reason)
		s.closeConn(c)
	}
	s.flushReplies()
}

// --- chaos / admin (all run on the core goroutine via do) ---

// PowerCut kills the device mid-flight exactly as cubeftl.PowerCut
// does — in-flight programs tear, unflushed journal bytes vanish —
// then drops every client connection. In-flight requests never get a
// reply; clients observe a dead connection and retry after Recover.
func (s *Server) PowerCut() error {
	var err error
	s.do(func() {
		if s.slo != nil && s.fe != nil {
			s.savedWeights, s.savedRates = s.slo.weightsAndRates()
		}
		if err = s.dev.PowerCut(); err != nil {
			return
		}
		s.up = false
		s.fe = nil
		s.stats.PowerCuts++
		dropped := len(s.conns)
		s.dropConns(DownRestart)
		s.events.Emit(telemetry.Event{
			SimNs: int64(s.dev.Now()),
			Type:  telemetry.EvPowerCut,
			Fields: map[string]float64{
				"sessions":      float64(len(s.sessions)),
				"conns_dropped": float64(dropped),
			},
		})
		s.logf("cubeserved: POWER CUT at %v (sessions kept: %d)", s.dev.Now(), len(s.sessions))
	})
	return err
}

// Recover remounts the device from its durable state (checkpoint +
// journal + OOB roll-forward), verifies it — including zero lost acked
// writes — rebuilds the front end, re-applies the SLO controller's
// knob positions, and resumes serving. Clients reconnect and resume
// their sessions.
func (s *Server) Recover() (cubeftl.MountReport, error) {
	var rpt cubeftl.MountReport
	var err error
	s.do(func() {
		rpt, err = s.dev.Remount(true, false)
		if err != nil {
			return
		}
		var fe *cubeftl.FrontEnd
		if fe, err = s.attachFrontEnd(); err != nil {
			return
		}
		s.fe = fe
		if s.slo != nil && s.savedWeights != nil {
			s.slo.rebind(fe, s.savedWeights, s.savedRates)
		} else if s.slo != nil {
			s.slo.fe = fe
		}
		s.up = true
		s.stats.Recoveries++
		s.attachDeviceObs()
		verified, ckpt := 0.0, 0.0
		if rpt.Verified {
			verified = 1
		}
		if rpt.UsedCheckpoint {
			ckpt = 1
		}
		s.events.Emit(telemetry.Event{
			SimNs: int64(s.dev.Now()),
			Type:  telemetry.EvRemount,
			Fields: map[string]float64{
				"verified":        verified,
				"used_checkpoint": ckpt,
				"mappings":        float64(rpt.MappingsRecovered),
				"mount_ns":        float64(rpt.MountTime),
				// Mappings the checkpoint and journal did not have: pages —
				// acked writes among them — that came back from their OOB
				// records alone.
				"rollforward_wins": float64(rpt.RollForwardWins),
			},
			Text: map[string]string{"outcome": "ok"},
		})
		s.logf("cubeserved: recovered in %v simulated (checkpoint=%v, %d mappings, verified=%v)",
			rpt.MountTime, rpt.UsedCheckpoint, rpt.MappingsRecovered, rpt.Verified)
	})
	return rpt, err
}

// Restart is PowerCut followed by Recover — the soak harness's
// "random power loss plus reboot" chaos event.
func (s *Server) Restart() (cubeftl.MountReport, error) {
	if err := s.PowerCut(); err != nil {
		return cubeftl.MountReport{}, err
	}
	return s.Recover()
}

// killDie injects certain program/erase failure on one die.
func (s *Server) killDie(die int) error {
	var err error
	s.do(func() {
		if err = s.dev.KillDie(die); err == nil {
			s.events.Emit(telemetry.Event{
				SimNs:  int64(s.dev.Now()),
				Type:   telemetry.EvDieKill,
				Fields: map[string]float64{"die": float64(die)},
			})
		}
	})
	return err
}

// AckedWrites returns the durability ledger's distinct acked pages.
func (s *Server) AckedWrites() int {
	var n int
	s.do(func() { n = s.dev.AckedWrites() })
	return n
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	var st Stats
	s.do(func() { st = s.stats })
	return st
}

// FinalStats returns the counters after Close has returned — the core
// goroutine has exited, so the direct read is race-free. Before Close,
// use Stats.
func (s *Server) FinalStats() Stats { return s.stats }

// Close shuts the server down gracefully: stop accepting, notify and
// drop clients, drain in-flight I/O, flush the journal, and write a
// final checkpoint so the next boot mounts instantly.
func (s *Server) Close() error {
	if s.ln != nil {
		s.ln.Close()
	}
	s.do(func() {
		s.draining = true
		s.events.Emit(telemetry.Event{
			SimNs:  int64(s.dev.Now()),
			Type:   telemetry.EvServerDrain,
			Fields: map[string]float64{"sessions": float64(len(s.sessions))},
		})
		s.dropConns(DownShutdown)
		if s.up && s.fe != nil && s.fe.Outstanding() > 0 {
			s.fe.Pump()
		}
		s.dev.Quiesce()
		s.up = false
		s.logf("cubeserved: drained and checkpointed at %v simulated", s.dev.Now())
	})
	close(s.quit)
	s.wg.Wait()
	if s.obsSrv != nil {
		s.obsSrv.Close()
	}
	return s.events.Close()
}
