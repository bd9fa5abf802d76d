package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
)

// referencePolicyState is the encoder AppendState replaced, kept as the
// oracle: a fresh buffer, fresh key slices, sort.Slice. AppendState must
// produce the same bytes.
func referencePolicyState(f *CubeFTL) []byte {
	sorted := func(n int, each func(add func(int64))) []int64 {
		keys := make([]int64, 0, n)
		each(func(k int64) { keys = append(keys, k) })
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		return keys
	}
	le := binary.LittleEndian
	b := append([]byte(nil), policyStateMagic[:]...)

	opmKeys := sorted(len(f.opm), func(add func(int64)) {
		for k := range f.opm {
			add(k)
		}
	})
	b = le.AppendUint32(b, uint32(len(opmKeys)))
	for _, k := range opmKeys {
		obs := f.opm[k]
		b = le.AppendUint64(b, uint64(k))
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

	ortKeys := sorted(len(f.ort), func(add func(int64)) {
		for k := range f.ort {
			add(k)
		}
	})
	b = le.AppendUint32(b, uint32(len(ortKeys)))
	for _, k := range ortKeys {
		b = le.AppendUint64(b, uint64(k))
		b = append(b, byte(f.ort[k]))
	}

	retryKeys := sorted(len(f.retry), func(add func(int64)) {
		for k := range f.retry {
			add(k)
		}
	})
	b = le.AppendUint64(b, f.readSeq)
	b = le.AppendUint32(b, uint32(len(retryKeys)))
	for _, k := range retryKeys {
		e := f.retry[k]
		b = le.AppendUint64(b, uint64(k))
		b = append(b, byte(e.offset))
		b = le.AppendUint64(b, e.seq)
	}
	return b
}

// learnedPolicy drives a cubeFTL controller until the OPM, the ORT and
// the retry table all hold entries.
func learnedPolicy(t testing.TB) *CubeFTL {
	t.Helper()
	eng, dev := testDevice(17)
	f := New(dev.Geometry())
	f.ApplyRetrySetup(RetrySetup{RetryTable: true})
	cfg := ftl.DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := ftl.NewController(dev, f, cfg)
	src := rng.New(3)
	for i := 0; i < 900; i++ {
		c.Write(ftl.LPN(src.Intn(300)), nil, func() {})
	}
	eng.Run()
	for i := 0; i < 300; i++ {
		c.Read(ftl.LPN(src.Intn(300)), nil, func() {})
	}
	eng.Run()
	f.ObserveRead(0, 5, 2, nand.ReadResult{OffsetUsed: 3}, nil)
	if len(f.opm) == 0 || len(f.ort) == 0 || len(f.retry) == 0 {
		t.Fatalf("policy learned too little: %d opm, %d ort, %d retry entries", len(f.opm), len(f.ort), len(f.retry))
	}
	return f
}

func TestAppendStateMatchesReferenceEncoder(t *testing.T) {
	_, dev := testDevice(17)
	for name, f := range map[string]*CubeFTL{"empty": New(dev.Geometry()), "learned": learnedPolicy(t)} {
		want := referencePolicyState(f)
		if got := f.AppendState(nil); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendState differs from the reference encoder (%d vs %d bytes)", name, len(got), len(want))
		}
		// Appending must leave what the buffer already holds alone.
		prefix := []byte("slot")
		got := f.AppendState(prefix)
		if !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], want) {
			t.Errorf("%s: AppendState onto a non-empty buffer is not prefix + state", name)
		}
	}
}

func TestAppendStateAllocs(t *testing.T) {
	f := learnedPolicy(t)
	buf := f.AppendState(nil)
	if n := testing.AllocsPerRun(20, func() { buf = f.AppendState(buf[:0]) }); n != 0 {
		t.Errorf("AppendState into a warm buffer: %.1f allocations, want 0", n)
	}
}

func BenchmarkAppendState(b *testing.B) {
	f := learnedPolicy(b)
	buf := f.AppendState(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = f.AppendState(buf[:0])
	}
}
