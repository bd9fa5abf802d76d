package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"time"
)

// ErrServerClosed reports the server announced a permanent shutdown
// (GoingDown/DownShutdown); retrying cannot succeed.
var ErrServerClosed = errors.New("server: closed for good")

// ErrRetriesExhausted wraps the last failure once a call's retry
// budget runs out.
var ErrRetriesExhausted = errors.New("server: retry budget exhausted")

// ClientConfig configures a Client.
type ClientConfig struct {
	Addr   string
	Tenant string

	// RetryBudget bounds one call's total wall-clock time across
	// reconnects and retries (default 30s). A call that cannot complete
	// within it fails with ErrRetriesExhausted — the client is never
	// stuck forever.
	RetryBudget time.Duration

	// Logf receives client-side log lines (nil = silent).
	Logf func(format string, args ...any)
}

const (
	// baseBackoff seeds the exponential backoff between retries, doubling
	// to maxBackoff. Backoff is deterministic; with writes deduplicated
	// server-side, thundering herds cost throughput, not correctness.
	baseBackoff = time.Millisecond
	maxBackoff  = 100 * time.Millisecond
	// callTimeout bounds one attempt's wait for a reply (wall clock). On
	// expiry the connection is dropped and the attempt retried.
	callTimeout = 5 * time.Second
	// idleAfter is how long a connection goes without a call before the
	// next call first reads what the server sent it meanwhile (drainIdle);
	// drainWait bounds that read when nothing is pending. A client that
	// calls back to back never pays it.
	idleAfter = 10 * time.Millisecond
	drainWait = 200 * time.Microsecond
)

func (c ClientConfig) withDefaults() ClientConfig {
	if c.RetryBudget <= 0 {
		c.RetryBudget = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ClientStats counts a client's view of the service.
type ClientStats struct {
	Dials        int64 // connection attempts (including reconnects)
	Retries      int64 // request re-issues after a retryable failure
	Duplicates   int64 // write acks served from the server's dedup window
	QueueFulls   int64 // RESOURCE_EXHAUSTED replies
	Unavailables int64 // UNAVAILABLE replies or dead connections
}

// Result reports one completed call.
type Result struct {
	// Latency is the device-side (simulated) latency the server
	// measured, not wall time.
	Latency time.Duration
	// Duplicate marks a write ack satisfied without re-executing: an
	// earlier attempt of this same request already committed.
	Duplicate bool
	// Mapped is OpStat's answer.
	Mapped bool
}

// Client is a synchronous block-service client: one outstanding
// request, idempotent retries with exponential backoff, automatic
// reconnect (resuming its server-side session and write-dedup window).
// Not safe for concurrent use; a soak worker owns one.
type Client struct {
	cfg ClientConfig

	nc net.Conn
	br *bufio.Reader
	// lastReply is when the connection last answered a Hello or a call:
	// a call after idleAfter of silence drains it first.
	lastReply time.Time
	// Request and reply frame buffers, kept across calls.
	wbuf, rbuf []byte

	// id is the server-assigned session ID; reused on reconnect so the
	// server reattaches the dedup window.
	id uint64
	// seq numbers requests. A retry reuses the original seq — that is
	// the idempotency key.
	seq uint64
	// floor: with one outstanding call, every seq below the current one
	// has been settled, so the previous seq is the dedup-prune floor.
	floor uint64

	// CapacityPages is the device's logical size, learned at Hello.
	CapacityPages int64
	// Queue is the server-side queue index for this tenant.
	Queue uint32

	Stats ClientStats
}

// Dial connects and opens a session, retrying within the retry budget.
func Dial(cfg ClientConfig) (*Client, error) {
	c := &Client{cfg: cfg.withDefaults()}
	deadline := time.Now().Add(c.cfg.RetryBudget)
	backoff := baseBackoff
	var last error
	for time.Now().Before(deadline) {
		if last = c.connect(); last == nil {
			return c, nil
		}
		if errors.Is(last, ErrServerClosed) {
			return nil, last
		}
		time.Sleep(backoff)
		backoff = nextBackoff(backoff)
	}
	return nil, fmt.Errorf("%w: dial %s: %v", ErrRetriesExhausted, cfg.Addr, last)
}

func nextBackoff(cur time.Duration) time.Duration { return min(cur*2, maxBackoff) }

// connect dials and performs the Hello handshake.
func (c *Client) connect() error {
	c.dropConn()
	c.Stats.Dials++
	nc, err := net.DialTimeout("tcp", c.cfg.Addr, callTimeout)
	if err != nil {
		return err
	}
	c.nc = nc
	c.br = bufio.NewReader(nc)
	c.wbuf, err = AppendHello(c.wbuf[:0], Hello{ClientID: c.id, Tenant: c.cfg.Tenant})
	if err != nil {
		c.dropConn()
		return err
	}
	if _, err := nc.Write(c.wbuf); err != nil {
		c.dropConn()
		return err
	}
	nc.SetReadDeadline(time.Now().Add(callTimeout))
	typ, body, err := c.readFrame()
	if err != nil {
		c.dropConn()
		return err
	}
	if typ == MsgGoingDown {
		reason, _ := ParseGoingDown(body)
		c.dropConn()
		if reason == DownShutdown {
			return ErrServerClosed
		}
		return fmt.Errorf("server restarting")
	}
	if typ != MsgHelloAck {
		c.dropConn()
		return ErrMalformed
	}
	ack, err := ParseHelloAck(body)
	if err != nil {
		c.dropConn()
		return err
	}
	if ack.Status != StatusOK {
		c.dropConn()
		if ack.Status.Retryable() {
			return fmt.Errorf("hello refused: %v", ack.Status)
		}
		return fmt.Errorf("%w: hello refused: %v", ErrServerClosed, ack.Status)
	}
	resumed := c.id != 0
	c.id, c.lastReply = ack.ClientID, time.Now()
	c.CapacityPages = ack.CapacityPages
	c.Queue = ack.Queue
	if resumed {
		c.cfg.Logf("client %d: session resumed (tenant %s)", c.id, c.cfg.Tenant)
	}
	return nil
}

// readFrame reads the next frame into the client's reply buffer; the
// body is valid until the next call.
func (c *Client) readFrame() (typ byte, body []byte, err error) {
	frame, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return 0, nil, err
	}
	c.rbuf = frame[:0]
	return frame[0], frame[1:], nil
}

func (c *Client) dropConn() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
		c.br = nil
	}
}

// Write commits pages logical pages at lpn, returning only once the
// server has durably acknowledged them. Safe across power cuts and
// reconnects: retries reuse the sequence number, so a write that
// committed before the failure is acknowledged from the server's dedup
// window instead of re-executing.
func (c *Client) Write(lpn int64, pages int) (Result, error) {
	return c.call(OpWrite, lpn, pages)
}

// Read fetches pages logical pages at lpn.
func (c *Client) Read(lpn int64, pages int) (Result, error) {
	return c.call(OpRead, lpn, pages)
}

// Stat reports whether lpn currently holds a written page.
func (c *Client) Stat(lpn int64) (bool, error) {
	res, err := c.call(OpStat, lpn, 1)
	return res.Mapped, err
}

func (c *Client) call(op uint8, lpn int64, pages int) (Result, error) {
	c.seq++
	req := IORequest{Op: op, Seq: c.seq, AckFloor: c.floor, LPN: lpn, Pages: uint32(pages)}
	now := time.Now()
	deadline := now.Add(c.cfg.RetryBudget)
	if c.nc != nil && now.Sub(c.lastReply) > idleAfter {
		if err := c.drainIdle(); err != nil {
			return Result{}, err
		}
	}
	backoff := baseBackoff
	var last error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Stats.Retries++
			if !time.Now().Before(deadline) {
				return Result{}, fmt.Errorf("%w: %s seq %d after %d attempts: %v",
					ErrRetriesExhausted, opName(op), req.Seq, attempt, last)
			}
			time.Sleep(backoff)
			backoff = nextBackoff(backoff)
		}
		if c.nc == nil {
			if last = c.connect(); last != nil {
				if errors.Is(last, ErrServerClosed) {
					return Result{}, last
				}
				c.Stats.Unavailables++
				continue
			}
		}
		rep, err := c.attempt(req)
		c.lastReply = time.Now()
		if err != nil {
			// Dead or wedged connection: the request may or may not have
			// executed. Reconnect and re-issue the same seq; the server's
			// dedup window makes the write path effectively-once.
			if errors.Is(err, ErrServerClosed) {
				return Result{}, err
			}
			c.Stats.Unavailables++
			c.dropConn()
			last = err
			continue
		}
		switch {
		case rep.Status == StatusOK:
			c.floor = req.Seq
			if rep.Flags&FlagDuplicate != 0 {
				c.Stats.Duplicates++
			}
			return Result{
				Latency:   time.Duration(rep.LatencyNs),
				Duplicate: rep.Flags&FlagDuplicate != 0,
				Mapped:    rep.Flags&FlagMapped != 0,
			}, nil
		case rep.Status == StatusResourceExhausted:
			c.Stats.QueueFulls++
			last = fmt.Errorf("status %v", rep.Status)
			continue
		case rep.Status == StatusUnavailable:
			c.Stats.Unavailables++
			c.dropConn() // reconnect once the server is back up
			last = fmt.Errorf("status %v", rep.Status)
			continue
		default:
			c.floor = req.Seq
			return Result{}, fmt.Errorf("server: %s seq %d: %v", opName(op), req.Seq, rep.Status)
		}
	}
}

// drainIdle reads what the server sent an idle connection before a
// call writes to it: a server that shuts down or restarts says so
// (GOINGDOWN) and closes the connection, and a write to the closed
// socket draws a reset that discards the unread notice. A shutdown
// notice ends the call with ErrServerClosed; a restart notice, a closed
// or broken connection drops it, so that the call redials. Stale
// replies are skipped.
func (c *Client) drainIdle() error {
	for {
		c.nc.SetReadDeadline(time.Now().Add(drainWait))
		if _, err := c.br.Peek(1); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				c.dropConn()
			}
			return nil // nothing pending
		}
		c.nc.SetReadDeadline(time.Now().Add(callTimeout))
		typ, body, err := c.readFrame()
		if err != nil {
			c.dropConn()
			return nil
		}
		if typ == MsgGoingDown {
			reason, _ := ParseGoingDown(body)
			c.dropConn()
			if reason == DownShutdown {
				return ErrServerClosed
			}
			return nil
		}
	}
}

// attempt sends req and waits for its reply on the current connection.
func (c *Client) attempt(req IORequest) (IOReply, error) {
	c.nc.SetReadDeadline(time.Now().Add(callTimeout))
	c.wbuf = AppendIO(c.wbuf[:0], req)
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return IOReply{}, err
	}
	for {
		typ, body, err := c.readFrame()
		if err != nil {
			return IOReply{}, err
		}
		switch typ {
		case MsgIOReply:
			rep, err := ParseIOReply(body)
			if err != nil {
				return IOReply{}, err
			}
			if rep.Seq != req.Seq {
				continue // stale reply from a pre-reconnect attempt
			}
			return rep, nil
		case MsgGoingDown:
			reason, _ := ParseGoingDown(body)
			if reason == DownShutdown {
				return IOReply{}, ErrServerClosed
			}
			return IOReply{}, fmt.Errorf("server restarting")
		default:
			return IOReply{}, ErrMalformed
		}
	}
}

// Close tears the connection down (the server keeps the session).
func (c *Client) Close() error {
	c.dropConn()
	return nil
}

func opName(op uint8) string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpStat:
		return "stat"
	}
	return fmt.Sprintf("op%d", op)
}
