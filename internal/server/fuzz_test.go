package server

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzReadFrame runs arbitrary bytes through the connection reader's loop:
// readFrame into the one kept buffer, then ParseHello or ParseIO by frame
// type. Nothing may panic; a request that parses re-encodes to the frame
// it came from; and it holds none of the kept buffer — the loop overwrites
// that with the next frame while the core still owns the request.
func FuzzReadFrame(f *testing.F) {
	hello, _ := AppendHello(nil, Hello{ClientID: 9, Tenant: "lat"})
	long, _ := AppendHello(nil, Hello{Tenant: strings.Repeat("t", MaxTenantName)})
	f.Add(hello)
	f.Add(append(append(long, ioStream(3)...), hello...))
	f.Add(ioStream(4)[:100])                                                                  // cut inside the fourth frame
	f.Add([]byte{0, 0, 0, 0})                                                                 // empty frame
	f.Add([]byte{0, 1, 0, 1, MsgIO})                                                          // beyond MaxFrame
	f.Add([]byte{0, 0, 0, 2, MsgHello, 0})                                                    // Hello too short
	f.Add(AppendIO(nil, IORequest{Op: 9, Seq: 1, LPN: 1, Pages: 1}))                          // unknown op
	f.Add(AppendIOReply(nil, IOReply{Seq: 1}))                                                // a server frame
	f.Add(append([]byte{0, 0, 0, 11, MsgHello}, "\x00\x00\x00\x00\x00\x00\x00\x01\x05ab"...)) // name length lies

	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var buf []byte
		for {
			frame, err := readFrame(br, buf)
			if err != nil {
				return
			}
			buf = frame[:0]
			wire := append([]byte(nil), frame...)
			switch frame[0] {
			case MsgHello:
				h, err := ParseHello(frame[1:])
				if err != nil {
					return
				}
				tenant := strings.Clone(h.Tenant)
				clear(frame[:cap(frame)])
				if h.Tenant != tenant {
					t.Fatalf("Hello's tenant %q changed to %q with the frame buffer", tenant, h.Tenant)
				}
				if again, err := AppendHello(nil, h); err != nil || !bytes.Equal(again[4:], wire) {
					t.Fatalf("Hello %+v re-encodes to %x (%v), read from %x", h, again, err, wire)
				}
			case MsgIO:
				r, err := ParseIO(frame[1:])
				if err != nil {
					return
				}
				if again := AppendIO(nil, r); !bytes.Equal(again[4:], wire) {
					t.Fatalf("IO %+v re-encodes to %x, read from %x", r, again, wire)
				}
			default:
				return // the reader drops the connection
			}
		}
	})
}
