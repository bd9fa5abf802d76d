package ftl

import (
	"encoding/binary"

	"cubeftl/internal/vth"
)

// Data-integrity mode: when the device's chips store data
// (nand.Config.StoreData) and ControllerConfig.VerifyData is set, the
// controller synthesizes a tagged payload for every flushed page,
// carries real bytes through garbage-collection relocation, and checks
// every flash read's payload against the translation state. A mismatch
// means the FTL mapped a page to the wrong place or lost an update —
// the strongest end-to-end correctness oracle the simulator has.
//
// Payloads are PageTagBytes long: the LPN and the global write stamp
// that produced them. The chip model stores whatever slice it is given,
// so tags stand in for full 16 KB pages without the memory cost. The
// recovery verifier uses the same tags to prove every acked write is
// readable with the right data after a power cycle.

// PageTagBytes is the length of a synthesized page payload.
const PageTagBytes = 16

// MakePageTag encodes (lpn, stamp) as a synthesized payload.
func MakePageTag(lpn LPN, stamp uint64) []byte {
	b := make([]byte, PageTagBytes)
	binary.LittleEndian.PutUint64(b[0:8], uint64(lpn))
	binary.LittleEndian.PutUint64(b[8:16], stamp)
	return b
}

// ParsePageTag decodes a payload; ok is false for foreign content.
func ParsePageTag(b []byte) (lpn LPN, stamp uint64, ok bool) {
	if len(b) != PageTagBytes {
		return 0, 0, false
	}
	return LPN(binary.LittleEndian.Uint64(b[0:8])), binary.LittleEndian.Uint64(b[8:16]), true
}

// hostPages builds the payloads for a flush group, padding the word
// line's unused page slots.
func (c *Controller) hostPages(group []FlushHandle) [][]byte {
	if c.expectedStamp == nil {
		return nil
	}
	pages := make([][]byte, vth.PagesPerWL)
	for i := range pages {
		if i < len(group) {
			pages[i] = MakePageTag(group[i].LPN, group[i].Stamp)
		} else {
			pages[i] = MakePageTag(UnmappedLPN, 0) // padding slot
		}
	}
	return pages
}

// recordMapping notes the write stamp now live for an LPN: expectedStamp
// is what every live logical page should contain, recorded when its
// mapping was installed.
func (c *Controller) recordMapping(lpn LPN, stamp uint64) {
	if c.expectedStamp != nil {
		c.expectedStamp[lpn] = stamp
	}
}

// checkReadPayload validates a flash read's payload against the tag the
// logical page held when the read was issued (issuedStamp) and counts a
// mismatch when the device returned anything else. Not the tag it holds
// now: a read queued behind a long plane hold may complete after the
// page was overwritten, flushed elsewhere and remapped, and still — the
// host sent it first — returns the version it was addressed to.
func (c *Controller) checkReadPayload(lpn LPN, issuedStamp uint64, data []byte) {
	if c.expectedStamp == nil || data == nil {
		return
	}
	gotLPN, gotStamp, ok := ParsePageTag(data)
	if !ok || gotLPN != lpn || gotStamp != issuedStamp {
		c.stats.DataMismatches++
	}
}
