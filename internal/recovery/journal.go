// Package recovery is the crash-consistency subsystem: per-program OOB
// metadata, a reserved system area holding periodic checkpoints and a
// write-ahead journal of block events, a power-cut engine that halts the
// simulated device mid-flight, and the mount path that rebuilds a
// consistent FTL from flash contents alone.
//
// A page's mapping is committed once, on the media: the CRC-checked OOB
// record programmed with it names its LPN and write stamp, and the mount
// rolls every page forward from there. The journal carries what no page
// records — a block opened, erased or retired, a die degraded, a trim —
// and is strictly a redo log of already-true facts: every record
// describes a state transition that has ALREADY happened on the media or
// in controller RAM by the time the record is appended. Replay of any
// validly-framed prefix is therefore always safe: a torn tail (detected
// by framing and CRC) drops only the newest facts, which the mount
// re-discovers from the media (a block opened since, by the free-pool
// probe) or which nothing was allowed to depend on yet (an erased block
// is not reused, and a trim is not durable, until its record is).
package recovery

import (
	"encoding/binary"
	"hash/crc32"

	"cubeftl/internal/ftl"
)

// Record types. The payload layouts are fixed little-endian.
const (
	recBlockOpened = iota + 1 // chip u32, block u32, seq u64
	recTrim                   // lpn u64, stamp u64
	recErased                 // chip u32, block u32
	recRetired                // chip u32, block u32
	recDieDegraded            // die u32
)

// record is one decoded journal entry. Fields are valid per typ.
type record struct {
	typ   int
	chip  int
	block int
	die   int
	seq   uint64
	lpn   ftl.LPN
	stamp uint64
}

// Frame: len u16 (payload bytes) | type u8 | payload | crc u32.
// len and crc make torn tails detectable: a cut mid-record leaves
// either a short frame or a CRC mismatch, and replay stops there.
const frameOverhead = 2 + 1 + 4

// Records are encoded in place at the end of the staging buffer:
// beginFrame appends the header, the caller appends the payload, and
// endFrame appends the CRC over both.
func beginFrame(dst []byte, typ byte, payloadLen int) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(payloadLen))
	return append(dst, typ)
}

// endFrame closes the frame that began at dst[start].
func endFrame(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendBlockOpened(dst []byte, chip, block int, seq uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, recBlockOpened, 16)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(chip))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(block))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return endFrame(dst, start)
}

func appendTrim(dst []byte, lpn ftl.LPN, stamp uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, recTrim, 16)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lpn))
	dst = binary.LittleEndian.AppendUint64(dst, stamp)
	return endFrame(dst, start)
}

// appendChipBlock encodes the two records that name a block: recErased
// and recRetired.
func appendChipBlock(dst []byte, typ byte, chip, block int) []byte {
	start := len(dst)
	dst = beginFrame(dst, typ, 8)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(chip))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(block))
	return endFrame(dst, start)
}

func appendDieDegraded(dst []byte, die int) []byte {
	start := len(dst)
	dst = beginFrame(dst, recDieDegraded, 4)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(die))
	return endFrame(dst, start)
}

// decodeJournal walks the journal buffer and returns every validly
// framed record with its start offset within b, plus whether the tail
// was torn (bytes remained but did not frame). A record with an
// unknown type or a payload of the wrong length also stops the walk —
// after a torn frame nothing downstream can be trusted, because frame
// boundaries are gone.
func decodeJournal(b []byte) (recs []record, offs []int, torn bool) {
	off := 0
	for off < len(b) {
		if len(b)-off < frameOverhead {
			return recs, offs, true
		}
		plen := int(binary.LittleEndian.Uint16(b[off : off+2]))
		if len(b)-off < frameOverhead+plen {
			return recs, offs, true
		}
		body := b[off : off+3+plen]
		crc := binary.LittleEndian.Uint32(b[off+3+plen : off+frameOverhead+plen])
		if crc32.ChecksumIEEE(body) != crc {
			return recs, offs, true
		}
		r, ok := decodeRecord(body[2], body[3:])
		if !ok {
			return recs, offs, true
		}
		recs = append(recs, r)
		offs = append(offs, off)
		off += frameOverhead + plen
	}
	return recs, offs, false
}

func decodeRecord(typ byte, p []byte) (record, bool) {
	le := binary.LittleEndian
	switch {
	case typ == recBlockOpened && len(p) == 16:
		return record{typ: recBlockOpened, chip: int(le.Uint32(p[0:4])), block: int(le.Uint32(p[4:8])), seq: le.Uint64(p[8:16])}, true
	case typ == recTrim && len(p) == 16:
		return record{typ: recTrim, lpn: ftl.LPN(le.Uint64(p[0:8])), stamp: le.Uint64(p[8:16])}, true
	case (typ == recErased || typ == recRetired) && len(p) == 8:
		return record{typ: int(typ), chip: int(le.Uint32(p[0:4])), block: int(le.Uint32(p[4:8]))}, true
	case typ == recDieDegraded && len(p) == 4:
		return record{typ: recDieDegraded, die: int(le.Uint32(p))}, true
	}
	return record{}, false
}
