// Package server puts the simulated SSD behind a real front door: a
// TCP block service whose client connections map onto the device's
// per-tenant submission/completion queue pairs, with durable-ack write
// semantics, idempotent retries, online SLO enforcement, and the full
// crash-recovery path (checkpoint on shutdown, Mount + verify on
// boot). See DESIGN.md §13.
//
// The wire protocol is deliberately gRPC-shaped — length-prefixed
// frames carrying typed messages, and a status taxonomy that splits
// retryable from terminal failures — but hand-rolled over the standard
// library: this module carries zero dependencies and a block device's
// four RPCs do not need a schema compiler. Integers are big-endian.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cubeftl"
)

// Protocol limits.
const (
	// MaxFrame bounds one frame's payload; anything larger is a
	// protocol violation and drops the connection.
	MaxFrame = 64 * 1024
	// MaxTenantName bounds the tenant string in a Hello.
	MaxTenantName = 255
)

// Message types.
const (
	MsgHello     = 1 // client → server: open or resume a session
	MsgHelloAck  = 2 // server → client: session granted or refused
	MsgIO        = 3 // client → server: read/write/stat request
	MsgIOReply   = 4 // server → client: one request's completion
	MsgGoingDown = 5 // server → client: restarting or shutting down
)

// IO operations.
const (
	OpRead  = 1
	OpWrite = 2
	// OpStat asks whether the LPN currently holds a written page (the
	// soak harness's acked-write audit; no media I/O is modeled).
	OpStat = 3
)

// Status is the reply code of one RPC. The taxonomy mirrors gRPC's:
// each code is either retryable (back off and re-issue the identical
// request — writes are deduplicated server-side, so this is safe) or
// terminal (re-issuing the identical request cannot succeed).
type Status uint8

// Status codes.
const (
	StatusOK Status = iota
	// StatusResourceExhausted: the tenant's submission queue is at
	// depth (admission backpressure). Retryable.
	StatusResourceExhausted
	// StatusUnavailable: the server is restarting, recovering, or
	// shutting down. Retryable — reconnect first.
	StatusUnavailable
	// StatusFailedPrecondition: the device is degraded to read-only;
	// writes cannot succeed until an operator intervenes. Terminal.
	StatusFailedPrecondition
	// StatusInvalidArgument: out-of-range LPN, unknown tenant, or a
	// malformed request. Terminal.
	StatusInvalidArgument
	// StatusInternal: an unclassified server-side failure. Terminal.
	StatusInternal
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusResourceExhausted:
		return "RESOURCE_EXHAUSTED"
	case StatusUnavailable:
		return "UNAVAILABLE"
	case StatusFailedPrecondition:
		return "FAILED_PRECONDITION"
	case StatusInvalidArgument:
		return "INVALID_ARGUMENT"
	case StatusInternal:
		return "INTERNAL"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Retryable reports whether a client should back off and re-issue the
// request (after reconnecting, for StatusUnavailable).
func (s Status) Retryable() bool {
	return s == StatusResourceExhausted || s == StatusUnavailable
}

// StatusFromError maps a device/front-end error onto the wire status
// using the facade's taxonomy: retryable conditions become
// RESOURCE_EXHAUSTED, a degraded device FAILED_PRECONDITION, argument
// errors INVALID_ARGUMENT, anything unclassified INTERNAL.
func StatusFromError(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case cubeftl.Retryable(err):
		return StatusResourceExhausted
	case errors.Is(err, cubeftl.ErrDegraded):
		return StatusFailedPrecondition
	case errors.Is(err, cubeftl.ErrBadLPN), errors.Is(err, cubeftl.ErrBadQueue):
		return StatusInvalidArgument
	default:
		return StatusInternal
	}
}

// Reply flags.
const (
	// FlagDuplicate marks a write ack satisfied from the session's
	// dedup window: the write was already durably acknowledged and was
	// not re-executed.
	FlagDuplicate = 1 << 0
	// FlagMapped on an OpStat reply reports the LPN holds a page.
	FlagMapped = 1 << 1
)

// GoingDown reasons.
const (
	DownRestart  = 1 // server will recover and accept reconnects
	DownShutdown = 2 // server is exiting for good
)

// Hello opens or resumes a session.
type Hello struct {
	// ClientID 0 requests a new session; a previous session's ID
	// resumes it (reattaching the write-dedup window after a
	// disconnect or server restart).
	ClientID uint64
	// Tenant names the queue pair this client's I/O rides.
	Tenant string
}

// HelloAck answers a Hello.
type HelloAck struct {
	Status        Status
	ClientID      uint64
	CapacityPages int64
	Queue         uint32
}

// IORequest is one read, write, or stat.
type IORequest struct {
	Op  uint8
	Seq uint64
	// AckFloor is the client's contiguous-acked high-water mark: every
	// write with Seq <= AckFloor has been acknowledged, so the server
	// may prune its dedup window below it.
	AckFloor uint64
	LPN      int64
	Pages    uint32
}

// IOReply answers one IORequest.
type IOReply struct {
	Seq       uint64
	Status    Status
	Flags     uint8
	LatencyNs int64
}

// Frame assembly. Every message marshals as
//
//	u32 length | u8 type | body
//
// with length covering type+body.

// AppendHello marshals h into a frame appended to dst.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if len(h.Tenant) > MaxTenantName {
		return dst, fmt.Errorf("server: tenant name %d bytes (max %d)", len(h.Tenant), MaxTenantName)
	}
	dst = appendHeader(dst, MsgHello, 8+1+len(h.Tenant))
	dst = binary.BigEndian.AppendUint64(dst, h.ClientID)
	dst = append(dst, byte(len(h.Tenant)))
	return append(dst, h.Tenant...), nil
}

// AppendHelloAck marshals a into a frame appended to dst.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = appendHeader(dst, MsgHelloAck, 1+8+8+4)
	dst = append(dst, byte(a.Status))
	dst = binary.BigEndian.AppendUint64(dst, a.ClientID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(a.CapacityPages))
	return binary.BigEndian.AppendUint32(dst, a.Queue)
}

// AppendIO marshals r into a frame appended to dst.
func AppendIO(dst []byte, r IORequest) []byte {
	dst = appendHeader(dst, MsgIO, 1+8+8+8+4)
	dst = append(dst, r.Op)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, r.AckFloor)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LPN))
	return binary.BigEndian.AppendUint32(dst, r.Pages)
}

// AppendIOReply marshals r into a frame appended to dst.
func AppendIOReply(dst []byte, r IOReply) []byte {
	dst = appendHeader(dst, MsgIOReply, 8+1+1+8)
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = append(dst, byte(r.Status), r.Flags)
	return binary.BigEndian.AppendUint64(dst, uint64(r.LatencyNs))
}

// AppendGoingDown marshals a shutdown notice appended to dst.
func AppendGoingDown(dst []byte, reason uint8) []byte {
	dst = appendHeader(dst, MsgGoingDown, 1)
	return append(dst, reason)
}

func appendHeader(dst []byte, typ byte, bodyLen int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+bodyLen))
	return append(dst, typ)
}

// ErrFrameTooLarge reports a frame beyond MaxFrame — a corrupt stream
// or a misbehaving peer.
var ErrFrameTooLarge = errors.New("server: frame exceeds MaxFrame")

// ErrMalformed reports a frame whose body does not parse.
var ErrMalformed = errors.New("server: malformed frame")

// ReadFrame reads one frame, returning its type and body. buf is
// reused when large enough.
func ReadFrame(r io.Reader, buf []byte) (typ byte, body []byte, err error) {
	frame, err := readFrame(r, buf)
	if err != nil {
		return 0, nil, err
	}
	return frame[0], frame[1:], nil
}

// frameBufBytes is the buffer readFrame starts a reader off with: room
// for every frame of the protocol but a Hello with a long tenant name.
const frameBufBytes = 64

// readFrame reads one frame into buf's backing array, growing it only
// when the frame does not fit, and returns the frame whole: type byte,
// then body. A reader that passes frame[:0] back in keeps one buffer
// for the life of its stream (a body alone is a byte short of it). The
// length prefix is read into the same buffer, so nothing escapes per
// call.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, frameBufBytes)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 1 {
		return nil, ErrMalformed
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ParseHello decodes a MsgHello body.
func ParseHello(body []byte) (Hello, error) {
	if len(body) < 9 {
		return Hello{}, ErrMalformed
	}
	h := Hello{ClientID: binary.BigEndian.Uint64(body)}
	nameLen := int(body[8])
	if len(body) != 9+nameLen {
		return Hello{}, ErrMalformed
	}
	h.Tenant = string(body[9:])
	return h, nil
}

// ParseHelloAck decodes a MsgHelloAck body.
func ParseHelloAck(body []byte) (HelloAck, error) {
	if len(body) != 21 {
		return HelloAck{}, ErrMalformed
	}
	return HelloAck{
		Status:        Status(body[0]),
		ClientID:      binary.BigEndian.Uint64(body[1:]),
		CapacityPages: int64(binary.BigEndian.Uint64(body[9:])),
		Queue:         binary.BigEndian.Uint32(body[17:]),
	}, nil
}

// ParseIO decodes a MsgIO body.
func ParseIO(body []byte) (IORequest, error) {
	if len(body) != 29 {
		return IORequest{}, ErrMalformed
	}
	r := IORequest{
		Op:       body[0],
		Seq:      binary.BigEndian.Uint64(body[1:]),
		AckFloor: binary.BigEndian.Uint64(body[9:]),
		LPN:      int64(binary.BigEndian.Uint64(body[17:])),
		Pages:    binary.BigEndian.Uint32(body[25:]),
	}
	if r.Op < OpRead || r.Op > OpStat {
		return IORequest{}, fmt.Errorf("%w: op %d", ErrMalformed, r.Op)
	}
	return r, nil
}

// ParseIOReply decodes a MsgIOReply body.
func ParseIOReply(body []byte) (IOReply, error) {
	if len(body) != 18 {
		return IOReply{}, ErrMalformed
	}
	return IOReply{
		Seq:       binary.BigEndian.Uint64(body),
		Status:    Status(body[8]),
		Flags:     body[9],
		LatencyNs: int64(binary.BigEndian.Uint64(body[10:])),
	}, nil
}

// ParseGoingDown decodes a MsgGoingDown body.
func ParseGoingDown(body []byte) (reason uint8, err error) {
	if len(body) != 1 {
		return 0, ErrMalformed
	}
	return body[0], nil
}
