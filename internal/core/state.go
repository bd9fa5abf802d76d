package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"cubeftl/internal/ftl"
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
	b = le.AppendUint32(b, uint32(f.stats.RetryEntries))
	for bi, live := range f.retryLive {
		if live == 0 {
			continue
		}
		for k := bi * f.geo.Layers; k < (bi+1)*f.geo.Layers; k++ {
			for bkt, e := range &f.retry[k] {
				if e.present {
					b = le.AppendUint64(b, uint64(k*RetryAgeBuckets+bkt))
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
	for bi := range f.retryLive {
		f.clearRetryBlock(bi)
	}
	return f.decodeState(data, true)
}

// decodeState walks a policy-state image, checking it against the
// tables' geometry; with apply set it also stores every entry (into
// tables the caller has emptied, from an image a first walk has
// accepted).
func (f *CubeFTL) decodeState(data []byte, apply bool) error {
	r := &ftl.StateReader{B: data, What: "core: policy state"}
	var magic [4]byte
	r.Bytes(magic[:])
	if r.Err == nil && magic != policyStateMagic {
		return fmt.Errorf("core: policy state has magic %q, want %q", magic[:], policyStateMagic[:])
	}
	layerKeys := int64(len(f.ort))

	nOPM := r.U32()
	prev := int64(-1)
	for i := uint32(0); i < nOPM && r.Err == nil; i++ {
		k := readKey(r, "OPM", &prev, layerKeys)
		valid := r.U8()
		if r.Err == nil && valid > 1 {
			return fmt.Errorf("core: policy state OPM record %d marks validity with byte %d", k, valid)
		}
		obs := layerObs{present: true, valid: valid == 1}
		if nWin := r.U16(); r.Err == nil && nWin != vth.ProgramStates {
			return fmt.Errorf("core: policy state OPM record has %d loop windows, want %d", nWin, vth.ProgramStates)
		}
		for j := range obs.windows {
			obs.windows[j] = process.LoopWindow{MinLoop: int(r.U16()), MaxLoop: int(r.U16())}
		}
		for s := range obs.skip {
			obs.skip[s] = int(int32(r.U32()))
		}
		obs.startMV = int(int32(r.U32()))
		obs.finalMV = int(int32(r.U32()))
		obs.lastBER = math.Float64frombits(r.U64())
		if apply && r.Err == nil {
			bi, l := int(k)/f.geo.Layers, int(k)%f.geo.Layers
			if f.opm[bi] == nil {
				f.opm[bi] = f.takeOPMRow()
			}
			f.opm[bi].obs[l] = obs
		}
	}

	nORT := r.U32()
	prev = -1
	for i := uint32(0); i < nORT && r.Err == nil; i++ {
		k := readKey(r, "ORT", &prev, layerKeys)
		v := int8(r.U8())
		if r.Err == nil && v < 0 {
			return fmt.Errorf("core: policy state ORT entry %d caches offset level %d", k, v)
		}
		if apply && r.Err == nil {
			f.ort[k] = v
		}
	}

	readSeq := r.U64()
	nRetry := r.U32()
	if apply && nRetry > 0 {
		f.makeRetryTable()
	}
	prev = -1
	for i := uint32(0); i < nRetry && r.Err == nil; i++ {
		k := readKey(r, "retry", &prev, layerKeys*RetryAgeBuckets)
		e := retryEntry{present: true, offset: int8(r.U8())}
		e.seq = r.U64()
		if apply && r.Err == nil {
			lk := int(k) / RetryAgeBuckets
			f.setRetry(lk/f.geo.Layers, lk, int(k)%RetryAgeBuckets, e)
		}
	}
	if r.Err != nil {
		return r.Err
	}
	if len(r.B) != 0 {
		return fmt.Errorf("core: policy state has %d trailing bytes", len(r.B))
	}
	if apply {
		f.readSeq = readSeq
	}
	return nil
}

// readKey reads one table key: it must lie in [0, limit) and above the
// previous key of its table (*prev, which it advances).
func readKey(r *ftl.StateReader, table string, prev *int64, limit int64) int64 {
	k := int64(r.U64())
	switch {
	case r.Err != nil:
	case k < 0 || k >= limit:
		r.Err = fmt.Errorf("core: policy state %s key %d is outside this geometry's table [0, %d)", table, k, limit)
	case k <= *prev:
		r.Err = fmt.Errorf("core: policy state %s key %d follows %d: keys must ascend", table, k, *prev)
	}
	*prev = k
	return k
}
