package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"cubeftl/internal/process"
	"cubeftl/internal/vth"
)

// Checkpointable policy state. The OPM's per-h-layer monitoring records
// and the cached optimal read offsets are exactly the online-learned
// state the paper argues cannot be rebuilt offline: losing them across
// a power cycle forces every open block back to full-verify programs
// and read-retry searches until the tables are relearned. AppendState /
// RestoreState implement ftl.PolicyStateSaver so the recovery
// subsystem's checkpoints carry them across simulated power loss.
//
// The encoding is deterministic — each table's entries in ascending key
// order — so the same learned state always serializes to the same
// bytes, the property the recovery tests use to prove same-seed recovery
// is byte-identical. The tables are indexed by that key (cube.go), so
// ascending key order is simply the order a walk from index 0 finds the
// entries in: block-major, then h-layer, then age bucket, which is how
// opmKey and opmKey*RetryAgeBuckets + bucket are composed. Nothing is
// collected or sorted.

// Version 2 appended the retry-table section (readSeq + decaying
// entries) after the ORT. Checkpoints never persist across builds, so
// the magic bumps instead of branching on both layouts.
var policyStateMagic = [4]byte{'C', 'P', 'S', '2'}

// AppendState implements ftl.PolicyStateSaver: the encoding is appended
// to dst, so a checkpoint streams it into the image it is writing. A
// call into a buffer with room allocates nothing.
func (f *CubeFTL) AppendState(dst []byte) []byte {
	le := binary.LittleEndian
	b := append(dst, policyStateMagic[:]...)

	// OPM and ORT keep no entry count: the count field is written once
	// the walk has made it.
	countAt, n := len(b), uint32(0)
	b = le.AppendUint32(b, 0)
	for bi, row := range f.opm {
		if row == nil {
			continue
		}
		for l := range row.obs {
			obs := &row.obs[l]
			if !obs.present {
				continue
			}
			n++
			b = le.AppendUint64(b, uint64(bi*f.geo.Layers+l))
			if obs.valid {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = le.AppendUint16(b, uint16(len(obs.windows)))
			for _, w := range obs.windows {
				b = le.AppendUint16(b, uint16(w.MinLoop))
				b = le.AppendUint16(b, uint16(w.MaxLoop))
			}
			for _, s := range obs.skip {
				b = le.AppendUint32(b, uint32(int32(s)))
			}
			b = le.AppendUint32(b, uint32(int32(obs.startMV)))
			b = le.AppendUint32(b, uint32(int32(obs.finalMV)))
			b = le.AppendUint64(b, math.Float64bits(obs.lastBER))
		}
	}
	le.PutUint32(b[countAt:], n)

	countAt, n = len(b), 0
	b = le.AppendUint32(b, 0)
	for k, v := range f.ort {
		if v != ortAbsent {
			n++
			b = le.AppendUint64(b, uint64(k))
			b = append(b, byte(v))
		}
	}
	le.PutUint32(b[countAt:], n)

	b = le.AppendUint64(b, f.readSeq)
	b = le.AppendUint32(b, uint32(f.retryLive))
	for bi := range f.retry {
		rb := &f.retry[bi]
		if rb.live == 0 {
			continue
		}
		for l := range rb.rows {
			for bkt, e := range &rb.rows[l] {
				if e.present {
					b = le.AppendUint64(b, uint64((bi*f.geo.Layers+l)*RetryAgeBuckets+bkt))
					b = append(b, byte(e.offset))
					b = le.AppendUint64(b, e.seq)
				}
			}
		}
	}
	return b
}

// RestoreState implements ftl.PolicyStateSaver. It replaces the OPM,
// ORT and retry tables with the decoded state; decision counters are
// not part of the durable state and restart at zero. An image is input:
// one that is truncated, or whose keys fall outside this geometry's
// tables or do not ascend, is refused with the tables as they were.
func (f *CubeFTL) RestoreState(data []byte) error {
	if err := f.decodeState(data, false); err != nil {
		return err
	}
	for bi := range f.opm {
		f.retireOPMRow(bi)
	}
	fillAbsent(f.ort)
	for bi := range f.retry {
		f.clearRetryBlock(&f.retry[bi])
	}
	return f.decodeState(data, true)
}

// decodeState walks a policy-state image, checking it against the
// tables' geometry; with apply set it also stores every entry (into
// tables the caller has emptied, from an image a first walk has
// accepted).
func (f *CubeFTL) decodeState(data []byte, apply bool) error {
	r := &stateReader{b: data}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err == nil && magic != policyStateMagic {
		return fmt.Errorf("core: policy state has magic %q, want %q", magic[:], policyStateMagic[:])
	}
	layerKeys := int64(len(f.ort))

	nOPM := r.u32()
	prev := int64(-1)
	for i := uint32(0); i < nOPM && r.err == nil; i++ {
		k := r.key("OPM", &prev, layerKeys)
		obs := layerObs{present: true, valid: r.u8() == 1}
		if nWin := r.u16(); r.err == nil && nWin != vth.ProgramStates {
			return fmt.Errorf("core: policy state OPM record has %d loop windows, want %d", nWin, vth.ProgramStates)
		}
		for j := range obs.windows {
			obs.windows[j] = process.LoopWindow{MinLoop: int(r.u16()), MaxLoop: int(r.u16())}
		}
		for s := range obs.skip {
			obs.skip[s] = int(int32(r.u32()))
		}
		obs.startMV = int(int32(r.u32()))
		obs.finalMV = int(int32(r.u32()))
		obs.lastBER = math.Float64frombits(r.u64())
		if apply && r.err == nil {
			bi, l := int(k)/f.geo.Layers, int(k)%f.geo.Layers
			if f.opm[bi] == nil {
				f.opm[bi] = f.takeOPMRow()
			}
			f.opm[bi].obs[l] = obs
		}
	}

	nORT := r.u32()
	prev = -1
	for i := uint32(0); i < nORT && r.err == nil; i++ {
		k := r.key("ORT", &prev, layerKeys)
		v := int8(r.u8())
		if r.err == nil && v < 0 {
			return fmt.Errorf("core: policy state ORT entry %d caches offset level %d", k, v)
		}
		if apply && r.err == nil {
			f.ort[k] = v
		}
	}

	readSeq := r.u64()
	nRetry := r.u32()
	prev = -1
	for i := uint32(0); i < nRetry && r.err == nil; i++ {
		k := r.key("retry", &prev, layerKeys*RetryAgeBuckets)
		e := retryEntry{present: true, offset: int8(r.u8())}
		e.seq = r.u64()
		if apply && r.err == nil {
			lk, bkt := int(k)/RetryAgeBuckets, int(k)%RetryAgeBuckets
			f.setRetry(&f.retry[lk/f.geo.Layers], lk%f.geo.Layers, bkt, e)
		}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("core: policy state has %d trailing bytes", len(r.b))
	}
	if apply {
		f.readSeq = readSeq
	}
	return nil
}

// stateReader is a little-endian cursor that latches the first
// truncation error instead of panicking on short input.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = fmt.Errorf("core: policy state truncated (need %d bytes, have %d)", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *stateReader) bytes(dst []byte) {
	if src := r.take(len(dst)); src != nil {
		copy(dst, src)
	}
}

// key reads one table key: it must lie in [0, limit) and above the
// previous key of its table (*prev, which it advances).
func (r *stateReader) key(table string, prev *int64, limit int64) int64 {
	k := int64(r.u64())
	switch {
	case r.err != nil:
	case k < 0 || k >= limit:
		r.err = fmt.Errorf("core: policy state %s key %d is outside this geometry's table [0, %d)", table, k, limit)
	case k <= *prev:
		r.err = fmt.Errorf("core: policy state %s key %d follows %d: keys must ascend", table, k, *prev)
	}
	*prev = k
	return k
}

func (r *stateReader) u8() byte {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *stateReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *stateReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *stateReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}
