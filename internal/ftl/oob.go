package ftl

import (
	"encoding/binary"
	"hash/crc32"
)

// Per-page out-of-band (spare area) metadata. Every page program writes
// an OOB record alongside the payload so the L2P mapping is always
// reconstructible from flash alone:
//
//	magic    u32  "CFO1"
//	lpn      i64  logical page (UnmappedLPN for padding pages)
//	stamp    u64  global write stamp of the data version
//	blockSeq u64  sequence number of the block-open that owns this page
//	crc      u32  CRC-32 (IEEE) over the fields above
//
// The stamp orders versions of the same LPN across the device; the
// block sequence breaks stamp ties between a GC source and its
// relocated copy (both carry the data's original stamp — the copy in
// the younger block wins). A partially-programmed (power-cut) word
// line has no readable OOB at all, and a torn spare area fails the CRC.

// OOBBytes is the encoded size of one OOB record.
const OOBBytes = 32

var oobMagic = [4]byte{'C', 'F', 'O', '1'}

// putOOB encodes the record into b, which must hold OOBBytes.
func putOOB(b []byte, lpn LPN, stamp, blockSeq uint64) {
	copy(b[0:4], oobMagic[:])
	binary.LittleEndian.PutUint64(b[4:12], uint64(lpn))
	binary.LittleEndian.PutUint64(b[12:20], stamp)
	binary.LittleEndian.PutUint64(b[20:28], blockSeq)
	binary.LittleEndian.PutUint32(b[28:32], crc32.ChecksumIEEE(b[:28]))
}

// DecodeOOB parses a spare-area record. ok is false for a nil, short,
// wrong-magic, or corrupt (CRC-failing) record — the roll-forward scan
// treats such pages as garbage.
func DecodeOOB(b []byte) (lpn LPN, stamp, blockSeq uint64, ok bool) {
	if len(b) != OOBBytes || [4]byte(b[0:4]) != oobMagic {
		return 0, 0, 0, false
	}
	if binary.LittleEndian.Uint32(b[28:32]) != crc32.ChecksumIEEE(b[:28]) {
		return 0, 0, 0, false
	}
	return LPN(binary.LittleEndian.Uint64(b[4:12])),
		binary.LittleEndian.Uint64(b[12:20]),
		binary.LittleEndian.Uint64(b[20:28]),
		true
}
