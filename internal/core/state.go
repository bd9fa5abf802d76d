package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// The encoding is deterministic (map entries are sorted by key) so the
// same learned state always serializes to the same bytes — the property
// the recovery tests use to prove same-seed recovery is byte-identical.

// Version 2 appended the retry-table section (readSeq + sorted decaying
// entries) after the ORT. Checkpoints never persist across builds, so
// the magic bumps instead of branching on both layouts.
var policyStateMagic = [4]byte{'C', 'P', 'S', '2'}

// AppendState implements ftl.PolicyStateSaver: the encoding is appended
// to dst, so a checkpoint streams it into the image it is writing. The
// sorted key list lives in a scratch slice the policy keeps, and is
// sorted without reflection; a steady-state call allocates nothing.
func (f *CubeFTL) AppendState(dst []byte) []byte {
	b := append(dst, policyStateMagic[:]...)

	keys := sortedKeys(f.stateKeys, f.opm)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		obs := f.opm[k]
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
		if obs.valid {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(obs.windows)))
		for _, w := range obs.windows {
			b = binary.LittleEndian.AppendUint16(b, uint16(w.MinLoop))
			b = binary.LittleEndian.AppendUint16(b, uint16(w.MaxLoop))
		}
		for _, s := range obs.skip {
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(s)))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(obs.startMV)))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(obs.finalMV)))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(obs.lastBER))
	}

	keys = sortedKeys(keys, f.ort)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
		b = append(b, byte(f.ort[k]))
	}

	keys = sortedKeys(keys, f.retry)
	b = binary.LittleEndian.AppendUint64(b, f.readSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		e := f.retry[k]
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
		b = append(b, byte(e.offset))
		b = binary.LittleEndian.AppendUint64(b, e.seq)
	}
	f.stateKeys = keys
	return b
}

// sortedKeys returns m's keys in ascending order, built in scratch's
// backing array.
func sortedKeys[V any](scratch []int64, m map[int64]V) []int64 {
	keys := scratch[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// RestoreState implements ftl.PolicyStateSaver. It replaces the OPM and
// ORT tables with the decoded state; decision counters are not part of
// the durable state and restart at zero.
func (f *CubeFTL) RestoreState(data []byte) error {
	r := &stateReader{b: data}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err == nil && magic != policyStateMagic {
		return fmt.Errorf("core: policy state has magic %q, want %q", magic[:], policyStateMagic[:])
	}

	opm := make(map[int64]*layerObs)
	nOPM := r.u32()
	for i := uint32(0); i < nOPM && r.err == nil; i++ {
		k := int64(r.u64())
		obs := &layerObs{valid: r.u8() == 1}
		nWin := r.u16()
		for j := uint16(0); j < nWin && r.err == nil; j++ {
			obs.windows = append(obs.windows, process.LoopWindow{
				MinLoop: int(r.u16()),
				MaxLoop: int(r.u16()),
			})
		}
		for s := 0; s < vth.ProgramStates; s++ {
			obs.skip[s] = int(int32(r.u32()))
		}
		obs.startMV = int(int32(r.u32()))
		obs.finalMV = int(int32(r.u32()))
		obs.lastBER = math.Float64frombits(r.u64())
		opm[k] = obs
	}

	ort := make(map[int64]int8)
	nORT := r.u32()
	for i := uint32(0); i < nORT && r.err == nil; i++ {
		k := int64(r.u64())
		ort[k] = int8(r.u8())
	}

	readSeq := r.u64()
	retry := make(map[int64]retryEntry)
	nRetry := r.u32()
	for i := uint32(0); i < nRetry && r.err == nil; i++ {
		k := int64(r.u64())
		off := int8(r.u8())
		retry[k] = retryEntry{offset: off, seq: r.u64()}
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("core: policy state has %d trailing bytes", len(r.b))
	}
	f.opm = opm
	f.ort = ort
	f.retry = retry
	f.readSeq = readSeq
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
