package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"cubeftl/internal/ftl"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// SystemArea models the reserved flash region holding the recovery
// metadata: two checkpoint slots written ping-pong (so a torn
// checkpoint write never destroys the previous good one) and the
// append-only journal. It is the only structure besides the NAND array
// in a power cut's Image — everything else (engine, device handles,
// controller, manager) is volatile and rebuilt at mount.
type SystemArea struct {
	base    uint64 // absolute journal offset of journal[0]
	journal []byte // durable journal bytes
	slots   [2]ckptSlot

	cutAt sim.Time // when the image was cut: reported checkpoint age only
}

// ckptSlot is one checkpoint location. A slot is invalidated before
// its rewrite begins and revalidated only when the write completes, so
// a cut mid-write tears at most one slot.
//
// The slot owns data's backing array for the life of the system area:
// a checkpoint is encoded straight into the buffer of the slot it
// overwrites, so the steady state allocates nothing. The bytes may be
// rewritten only while valid is false — nothing reads an invalid slot
// (mount, StateBytes and CheckpointBytes all go through newestSlot) —
// and nothing outside this package ever holds the slice itself:
// StateBytes copies, and the mount side decodes into fresh structures.
type ckptSlot struct {
	valid  bool
	stamp  uint64   // monotonic checkpoint generation
	cutoff uint64   // absolute journal offset the snapshot covers
	at     sim.Time // capture time (reporting only)
	data   []byte   // checkpoint image (see appendCheckpoint)
}

// NewSystemArea returns an empty system area (factory-fresh device).
func NewSystemArea() *SystemArea { return &SystemArea{} }

// durableEnd returns the absolute offset one past the last durable
// journal byte.
func (s *SystemArea) durableEnd() uint64 { return s.base + uint64(len(s.journal)) }

// newestSlot returns the index of the valid slot with the highest
// stamp, or -1 when no valid checkpoint exists.
func (s *SystemArea) newestSlot() int {
	best := -1
	for i := range s.slots {
		if s.slots[i].valid && (best < 0 || s.slots[i].stamp > s.slots[best].stamp) {
			best = i
		}
	}
	return best
}

// oldestSlot returns the slot a new checkpoint should overwrite: an
// invalid slot if one exists, else the lower-stamped one.
func (s *SystemArea) oldestSlot() int {
	for i := range s.slots {
		if !s.slots[i].valid {
			return i
		}
	}
	if s.slots[0].stamp <= s.slots[1].stamp {
		return 0
	}
	return 1
}

// truncate drops durable journal bytes below the absolute offset off
// (a no-op if off is at or below the current base). Called when a
// checkpoint covering those bytes becomes durable.
func (s *SystemArea) truncate(off uint64) {
	if off <= s.base {
		return
	}
	if off > s.durableEnd() {
		off = s.durableEnd()
	}
	s.journal = s.journal[:copy(s.journal, s.journal[off-s.base:])]
	s.base = off
}

// CheckpointBytes returns the newest valid checkpoint's size, or 0.
func (s *SystemArea) CheckpointBytes() int {
	if i := s.newestSlot(); i >= 0 {
		return len(s.slots[i].data)
	}
	return 0
}

// StateBytes returns a copy of the newest valid checkpoint image — the
// canonical serialization of the recovered state. Two mounts that
// recovered identical state produce identical StateBytes; the sweep
// test uses this for the byte-identical same-seed check.
func (s *SystemArea) StateBytes() []byte {
	if i := s.newestSlot(); i >= 0 {
		return append([]byte(nil), s.slots[i].data...)
	}
	return nil
}

// Checkpoint image encoding: magic | durable controller state (the
// fields of ftl.MountState) | policy-state bytes | CRC-32 over
// everything before it. Deterministic for identical state.
var ckptMagic = [4]byte{'C', 'C', 'K', 'P'}

// An image opens with a fixed header — magic, LastStamp u64,
// LastBlockSeq u64, chip count u32, mapping count u32 — followed by the
// L2P entries in LPN order, mappingBytes each: lpn u64, ppn u64, stamp
// u64. A trimmed page is an entry too, a tombstone: ppn -1, the trim's
// stamp.
const (
	ckptHeaderBytes = 4 + 8 + 8 + 4 + 4
	mappingBytes    = 24
)

// ckptMappings returns the mapping count an image's header records.
func ckptMappings(img []byte) int {
	return int(binary.LittleEndian.Uint32(img[ckptHeaderBytes-4:]))
}

// ckptEncoder streams a controller's durable state into a checkpoint
// image. It never materialises an ftl.MountState: it walks the mapper,
// the stamps and the block pools and appends as it goes. The scratch
// buffers are kept so a steady-state checkpoint allocates nothing.
type ckptEncoder struct {
	actives []ftl.ActiveRecord
	retired []int
	was     [ckptHeaderBytes]byte // patchCheckpoint: a span's bytes before its rewrite
	dirty   []ftl.LPN             // patchCheckpoint: the dirty pages, sorted, each once
	at      []int                 // patchCheckpoint: where each page new to the image goes

	// bodyCRC is the CRC of the header and mapping records of the image
	// last encoded — what patchCheckpoint needs of an image to patch it.
	bodyCRC uint32
}

// appendHeader appends the image header for ctrl's counters and nMap
// mapping records.
func appendHeader(dst []byte, ctrl *ftl.Controller, nMap int) []byte {
	le := binary.LittleEndian
	dst = append(dst, ckptMagic[:]...)
	lastStamp, lastBlockSeq := ctrl.StampCounters()
	dst = le.AppendUint64(dst, lastStamp)
	dst = le.AppendUint64(dst, lastBlockSeq)
	dst = le.AppendUint32(dst, uint32(ctrl.Device().Geometry().Chips))
	return le.AppendUint32(dst, uint32(nMap))
}

// putMapping encodes lpn's current mapping into rec.
func putMapping(rec []byte, ctrl *ftl.Controller, lpn ftl.LPN, ppn ssd.PPN) {
	le := binary.LittleEndian
	le.PutUint64(rec[0:], uint64(lpn))
	le.PutUint64(rec[8:], uint64(int64(ppn)))
	le.PutUint64(rec[16:], ctrl.StampOf(lpn))
}

// appendCheckpoint appends ctrl's checkpoint image to dst. The bytes are
// exactly those the reference encoder (tests) produces from ctrl's
// durable state and the policy's state: the image length sets the
// modeled checkpoint latency, so it may not drift.
func (e *ckptEncoder) appendCheckpoint(dst []byte, ctrl *ftl.Controller) []byte {
	start := len(dst)

	// The controller counts the pages that carry a stamp, so the mapping
	// section is sized before the walk and written by index. A buffer that has to
	// grow for it grows a sixteenth further: the pools and the policy's
	// state come to a few percent of the records on a device worth
	// pre-sizing for (65 KB behind 2.4 MB on the served one), and appended
	// to a buffer sized for the records alone they would move the whole
	// image once more. The image's CRC is folded in behind the writes, a
	// chunk at a time while the chunk is still in cache: a second pass
	// over the finished image would read all of it back from memory.
	mapper := ctrl.Mapper()
	nMap := ctrl.StampedPages()
	if need := ckptHeaderBytes + nMap*mappingBytes; cap(dst)-len(dst) < need {
		dst = slices.Grow(dst, need+need/16)
	}
	dst = appendHeader(dst, ctrl, nMap)
	recs := dst[len(dst) : len(dst)+nMap*mappingBytes]
	dst = dst[:len(dst)+len(recs)]
	off, summed := 0, 0
	crc := crc32.Update(0, crc32.IEEETable, dst[start:len(dst)-len(recs)])
	for lpn, n := ftl.LPN(0), ftl.LPN(mapper.LogicalPages()); lpn < n; lpn++ {
		ppn := mapper.Lookup(lpn)
		if ppn == ssd.UnmappedPPN && ctrl.StampOf(lpn) == 0 {
			continue
		}
		if off == len(recs) {
			panic("recovery: more pages carry a stamp than the controller counts")
		}
		putMapping(recs[off:off+mappingBytes], ctrl, lpn, ppn)
		off += mappingBytes
		if off-summed >= crcChunk {
			crc = crc32.Update(crc, crc32.IEEETable, recs[summed:off])
			summed = off
		}
	}
	if off != len(recs) {
		panic("recovery: fewer pages carry a stamp than the controller counts")
	}
	crc = crc32.Update(crc, crc32.IEEETable, recs[summed:])
	return e.appendTail(dst, ctrl, crc, len(dst))
}

// patchCheckpoint brings img, an image this encoder left in the buffer
// with bodyCRC over its header and records, up to ctrl's state by
// rewriting what can have changed: the header's counters, the records of
// the pages in dirty, everything behind the records. The caller vouches
// that dirty names every page mapped or trimmed since img was encoded,
// repeats and all. A page never loses its stamp, so the pages with one
// are the image's and, if there are more of them now, the pages of dirty
// the image does not list: their records are inserted where they belong.
// The result is then appendCheckpoint's, byte for byte, without the walk
// over the logical space.
//
// dirty is sorted into scratch once, so the image's records are found by
// one forward gallop and the new ones merged in by one backward pass that
// moves each run of old records once. Only the image's header and its
// rewritten records need summing again: CRC-32 is linear, so each
// rewritten span moves the body's CRC by crcOfChange, whatever the
// megabytes around it hold, and records appended past the image's last
// one extend it. A long list (a saturating writer's), or a new page that
// lands among the old records, is cheaper summed in one pass.
func (e *ckptEncoder) patchCheckpoint(img []byte, bodyCRC uint32, ctrl *ftl.Controller, dirty []ftl.LPN) []byte {
	nOld, nMap := ckptMappings(img), ctrl.StampedPages()
	oldBody := ckptHeaderBytes + nOld*mappingBytes
	recs := img[ckptHeaderBytes:oldBody]
	// A page new to the image costs no move: its record is summed where
	// it is appended.
	moveCRC := (len(dirty)-(nMap-nOld))*crcMoveWorthBytes < oldBody
	was := e.was[:copy(e.was[:], img[:ckptHeaderBytes])]
	appendHeader(img[:0], ctrl, nMap)
	crc := bodyCRC
	if moveCRC {
		crc ^= crcOfChange(was, img[:ckptHeaderBytes], len(recs))
	}

	// Rewrite the records the image has; gather the pages it lacks at the
	// front of the sorted list, each with the index of the first record
	// above it.
	e.dirty = append(e.dirty[:0], dirty...)
	slices.Sort(e.dirty)
	sorted := slices.Compact(e.dirty)
	mapper := ctrl.Mapper()
	added, at := 0, 0
	e.at = e.at[:0]
	for _, lpn := range sorted {
		if ctrl.StampOf(lpn) == 0 {
			panic("recovery: patched checkpoint names a page without a stamp")
		}
		if at = seekRecord(recs, at, lpn); at == nOld || recordLPN(recs, at) != lpn {
			if at < nOld {
				moveCRC = false // a merge moves the records behind it
			}
			sorted[added] = lpn
			added++
			e.at = append(e.at, at)
			continue
		}
		rec := recs[at*mappingBytes : (at+1)*mappingBytes]
		was = e.was[:copy(e.was[:], rec)]
		putMapping(rec, ctrl, lpn, mapper.Lookup(lpn))
		if moveCRC {
			crc ^= crcOfChange(was, rec, len(recs)-(at+1)*mappingBytes)
		}
	}
	if added != nMap-nOld {
		panic("recovery: patched checkpoint's set of pages differs from the image's")
	}

	// A buffer grows as appendCheckpoint's does, at least a sixteenth past
	// the image, tail included, and before the image fills it: the policy's
	// state changes length from one checkpoint to the next, and a tail that
	// outgrew the buffer would move the whole image once more inside its
	// appends — after a prefill, once a slot under the steady load.
	body := ckptHeaderBytes + nMap*mappingBytes
	if need := body + len(img) - oldBody; cap(img) < need+need/32 {
		img = slices.Grow(img[:oldBody], need+need/16-oldBody)
	}
	img = img[:body]
	recs = img[ckptHeaderBytes:]
	for k, end := added-1, nOld; k >= 0; k-- {
		// The old records above the k-th new page move up past it and
		// the k pages below it.
		i := e.at[k]
		copy(recs[(i+k+1)*mappingBytes:], recs[i*mappingBytes:end*mappingBytes])
		putMapping(recs[(i+k)*mappingBytes:(i+k+1)*mappingBytes], ctrl, sorted[k], mapper.Lookup(sorted[k]))
		end = i
	}
	if moveCRC {
		crc = crc32.Update(crc, crc32.IEEETable, img[oldBody:])
	} else {
		crc = crc32.Update(0, crc32.IEEETable, img)
	}
	return e.appendTail(img, ctrl, crc, body)
}

// recordLPN returns the LPN of the i-th of a run of mapping records.
func recordLPN(recs []byte, i int) ftl.LPN {
	return ftl.LPN(binary.LittleEndian.Uint64(recs[i*mappingBytes:]))
}

// seekRecord returns the first record at or after from whose LPN is lpn
// or above (the record count if none): it gallops forward from from in
// doubling steps, then binary-searches the last step. Called for
// ascending lpn, each from the last answer, it costs O(log gap) a page
// instead of O(log n).
func seekRecord(recs []byte, from int, lpn ftl.LPN) int {
	n := len(recs) / mappingBytes
	lo, hi := from, from
	for step := 1; hi < n && recordLPN(recs, hi) < lpn; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	for hi = min(hi, n); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); recordLPN(recs, mid) < lpn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// crcMoveWorthBytes is how many bytes of a plain CRC pass one crcOfChange
// costs (0.19 us against 18 GB/s of hash/crc32 on the development
// machine, rounded up): patchCheckpoint moves the CRC record by record
// only while that is cheaper than summing the body.
const crcMoveWorthBytes = 4096

// crcOfChange returns what rewriting a span of a message from was to now
// does to the message's CRC-32, behind bytes of it following the span:
// crc(new message) = crc(old message) ^ crcOfChange. The two messages
// differ by was ^ now followed by behind zero bytes (what precedes the
// span cancels, and so do the CRC's initial value and final inversion),
// and the remainder of that is the span's, multiplied by x^(8 behind).
// was is left holding the difference.
func crcOfChange(was, now []byte, behind int) uint32 {
	for i := range was {
		was[i] ^= now[i]
	}
	return crcShift(crcRaw(was), behind)
}

// crcRaw is the remainder of p(x) x^32 by the IEEE polynomial, in the
// bit order hash/crc32 keeps: its CRC with a zero initial value and no
// final inversion, the form in which the CRC is linear in p.
func crcRaw(p []byte) uint32 { return ^crc32.Update(0xffffffff, crc32.IEEETable, p) }

// crcShift returns r x^(8n) mod P: the raw CRC of a message followed by
// n zero bytes, from the raw CRC r of the message. One multiplication
// per non-zero byte of n.
func crcShift(r uint32, n int) uint32 {
	for d := 0; n != 0 && r != 0; d, n = d+1, n>>8 {
		if v := n & 0xff; v != 0 {
			r = crcMul(crcPow8[d][v], r)
		}
	}
	return r
}

// crcPow8[d][v] is x^(8 v 256^d) mod P, for every distance below 2^40
// bytes (an image's mapping count is 32 bits wide). In hash/crc32's
// reflected order bit 31 is the coefficient of x^0, so x^8 is bit 23.
var crcPow8 = func() (t [5][256]uint32) {
	step := uint32(1 << 23)
	for d := range t {
		t[d][0] = 1 << 31
		for v := 1; v < len(t[d]); v++ {
			t[d][v] = crcMul(t[d][v-1], step)
		}
		step = crcMul(t[d][255], step)
	}
	return t
}()

// crcMul multiplies two polynomials mod P (reflected bit order): a's
// coefficients from x^0 up, b multiplied by x at each step.
func crcMul(a, b uint32) (p uint32) {
	for ; a != 0; a <<= 1 {
		if a&(1<<31) != 0 {
			p ^= b
		}
		b = b>>1 ^ crc32.IEEE&-(b&1)
	}
	return p
}

// appendTail appends what follows the mapping records — the block pools
// per chip, the policy's state, the CRC — to an image whose bytes before
// from, its header and records, sum to crc.
func (e *ckptEncoder) appendTail(dst []byte, ctrl *ftl.Controller, crc uint32, from int) []byte {
	e.bodyCRC = crc
	le := binary.LittleEndian
	for chip, nChips := 0, ctrl.Device().Geometry().Chips; chip < nChips; chip++ {
		free := ctrl.FreeBlocks(chip)
		dst = le.AppendUint32(dst, uint32(len(free)))
		for _, blk := range free {
			dst = le.AppendUint32(dst, uint32(blk))
		}
		e.actives = ctrl.AppendActives(e.actives[:0], chip)
		dst = le.AppendUint32(dst, uint32(len(e.actives)))
		for _, ar := range e.actives {
			dst = le.AppendUint32(dst, uint32(ar.Block))
			dst = le.AppendUint64(dst, ar.Seq)
		}
		e.retired = ctrl.AppendRetired(e.retired[:0], chip)
		dst = le.AppendUint32(dst, uint32(len(e.retired)))
		for _, blk := range e.retired {
			dst = le.AppendUint32(dst, uint32(blk))
		}
		if ctrl.DieDegraded(chip) {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}

	// The policy appends its own state; its length is patched in after.
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if ps, ok := ctrl.Policy().(ftl.PolicyStateSaver); ok {
		dst = ps.AppendState(dst)
	}
	le.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return le.AppendUint32(dst, crc32.Update(crc, crc32.IEEETable, dst[from:]))
}

// crcChunk is how many bytes of mapping records appendCheckpoint writes
// between CRC updates.
const crcChunk = 32 << 10

// decodeCheckpoint decodes an image for a device of geometry geo into
// the tables the controller keeps, refusing damage and what the device
// cannot hold or the encoder never writes (DESIGN.md §12 "What the
// decoder refuses"): an image it accepts re-encodes to the same bytes.
func decodeCheckpoint(b []byte, geo ssd.Geometry) (ms ftl.MountState, policy []byte, err error) {
	if len(b) < 4+4 {
		return ms, nil, fmt.Errorf("recovery: checkpoint too short (%d bytes)", len(b))
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return ms, nil, fmt.Errorf("recovery: checkpoint CRC mismatch")
	}
	r := &ftl.StateReader{B: body, What: "recovery: checkpoint"}
	var magic [4]byte
	r.Bytes(magic[:])
	if r.Err == nil && magic != ckptMagic {
		return ms, nil, fmt.Errorf("recovery: checkpoint magic %q", magic[:])
	}
	ms = ftl.NewMountState(geo)
	ms.LastStamp, ms.LastBlockSeq = r.U64(), r.U64()
	nChips, nMap := int(r.U32()), int(r.U32())
	if r.Err != nil {
		return ftl.MountState{}, nil, r.Err
	}
	if nChips != geo.Chips {
		return ftl.MountState{}, nil, fmt.Errorf("recovery: checkpoint covers %d chips, the device has %d", nChips, geo.Chips)
	}
	logical, phys := ftl.LPN(len(ms.L2P)), int64(geo.PhysPages())
	for i, prev := 0, ftl.LPN(-1); i < nMap && r.Err == nil; i++ {
		lpn, ppn, stamp := ftl.LPN(r.U64()), int64(r.U64()), r.U64()
		switch {
		case r.Err != nil:
		case lpn <= prev || lpn >= logical:
			r.Err = fmt.Errorf("recovery: checkpoint lists LPN %d after %d, of %d", lpn, prev, logical)
		case ppn != int64(ssd.UnmappedPPN) && (ppn < 0 || ppn >= phys):
			r.Err = fmt.Errorf("recovery: checkpoint maps LPN %d to PPN %d, outside the device's %d", lpn, ppn, phys)
		case stamp == 0 || stamp > ms.LastStamp:
			r.Err = fmt.Errorf("recovery: checkpoint stamps LPN %d %d, the last stamp %d", lpn, stamp, ms.LastStamp)
		default:
			ms.L2P[lpn], ms.Stamps[lpn], prev = ssd.PPN(ppn), stamp, lpn
		}
	}
	block := func() int {
		b := int(r.U32())
		if b >= geo.BlocksPerChip && r.Err == nil {
			r.Err = fmt.Errorf("recovery: checkpoint names block %d, the chip has %d", b, geo.BlocksPerChip)
		}
		return b
	}
	for chip := 0; chip < nChips && r.Err == nil; chip++ {
		for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
			ms.Free[chip] = append(ms.Free[chip], block())
		}
		for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
			ms.Actives[chip] = append(ms.Actives[chip], ftl.ActiveRecord{Block: block(), Seq: r.U64()})
		}
		for n := int(r.U32()); n > 0 && r.Err == nil; n-- {
			ms.Retired[chip] = append(ms.Retired[chip], block())
		}
		d := r.U8()
		if d > 1 {
			return ftl.MountState{}, nil, fmt.Errorf("recovery: checkpoint marks chip %d degraded with byte %d", chip, d)
		}
		ms.DegradedDies[chip] = d == 1
	}
	if n := int(r.U32()); n > 0 && r.Err == nil {
		policy = append([]byte(nil), r.Take(n)...)
	}
	if r.Err != nil {
		return ftl.MountState{}, nil, r.Err
	}
	if len(r.B) != 0 {
		return ftl.MountState{}, nil, fmt.Errorf("recovery: checkpoint has %d trailing bytes", len(r.B))
	}
	return ms, policy, nil
}
