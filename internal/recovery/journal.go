// Package recovery is the crash-consistency subsystem: per-program OOB
// metadata, a reserved system area holding periodic checkpoints and a
// write-ahead journal of mapping deltas, a power-cut engine that halts
// the simulated device mid-flight, and the mount path that rebuilds a
// consistent FTL from flash contents alone.
//
// The journal is strictly a redo log of already-true facts: every
// record describes a state transition that has ALREADY happened on the
// media or in controller RAM by the time the record is appended. Replay
// of any validly-framed prefix is therefore always safe — a torn tail
// (detected by framing and CRC) simply means the newest facts are
// re-discovered by the OOB roll-forward scan instead.
package recovery

import (
	"encoding/binary"
	"hash/crc32"

	"cubeftl/internal/ftl"
	"cubeftl/internal/ssd"
)

// Record types. The payload layouts are fixed little-endian.
const (
	recBlockOpened = iota + 1 // chip u32, block u32, seq u64
	recMapped                 // lpn u64, ppn u64, stamp u64
	recTrim                   // lpn u64
	recErased                 // chip u32, block u32
	recRetired                // chip u32, block u32
	recDieDegraded            // die u32
)

// Record is one decoded journal entry. Fields are valid per Type.
type Record struct {
	Type  int
	Chip  int
	Block int
	Die   int
	Seq   uint64
	LPN   ftl.LPN
	PPN   ssd.PPN
	Stamp uint64
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

func appendMapped(dst []byte, lpn ftl.LPN, ppn ssd.PPN, stamp uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, recMapped, 24)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lpn))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(ppn)))
	dst = binary.LittleEndian.AppendUint64(dst, stamp)
	return endFrame(dst, start)
}

func appendTrim(dst []byte, lpn ftl.LPN) []byte {
	start := len(dst)
	dst = beginFrame(dst, recTrim, 8)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lpn))
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
// unknown type, a short payload or a PPN out of range (FuzzDecodeJournal:
// it was truncated to one that fits) also stops the walk — after a torn
// frame nothing downstream can be trusted, because frame boundaries
// are gone.
func decodeJournal(b []byte) (recs []Record, offs []int, torn bool) {
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

func decodeRecord(typ byte, p []byte) (Record, bool) {
	switch typ {
	case recBlockOpened:
		if len(p) != 16 {
			return Record{}, false
		}
		return Record{
			Type:  recBlockOpened,
			Chip:  int(binary.LittleEndian.Uint32(p[0:4])),
			Block: int(binary.LittleEndian.Uint32(p[4:8])),
			Seq:   binary.LittleEndian.Uint64(p[8:16]),
		}, true
	case recMapped:
		if len(p) != 24 {
			return Record{}, false
		}
		ppn := int64(binary.LittleEndian.Uint64(p[8:16]))
		if int64(ssd.PPN(ppn)) != ppn {
			return Record{}, false // a PPN no device has: damage, not a mapping
		}
		return Record{
			Type:  recMapped,
			LPN:   ftl.LPN(binary.LittleEndian.Uint64(p[0:8])),
			PPN:   ssd.PPN(ppn),
			Stamp: binary.LittleEndian.Uint64(p[16:24]),
		}, true
	case recTrim:
		if len(p) != 8 {
			return Record{}, false
		}
		return Record{Type: recTrim, LPN: ftl.LPN(binary.LittleEndian.Uint64(p))}, true
	case recErased, recRetired:
		if len(p) != 8 {
			return Record{}, false
		}
		return Record{
			Type:  int(typ),
			Chip:  int(binary.LittleEndian.Uint32(p[0:4])),
			Block: int(binary.LittleEndian.Uint32(p[4:8])),
		}, true
	case recDieDegraded:
		if len(p) != 4 {
			return Record{}, false
		}
		return Record{Type: recDieDegraded, Die: int(binary.LittleEndian.Uint32(p))}, true
	default:
		return Record{}, false
	}
}
