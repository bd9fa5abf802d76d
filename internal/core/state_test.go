package core

import (
	"bytes"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
)

// learnedLockstep drives a cubeFTL controller until the OPM, the ORT
// and the retry table all hold entries — through the lockstep policy of
// reference_test.go, so the map-based reference has seen every call the
// flat tables have and the two were compared after each.
func learnedLockstep(t testing.TB) *lockstep {
	t.Helper()
	eng, dev := testDevice(17)
	ls := newLockstep(t, dev.Geometry(), DefaultConfig())
	ls.applyRetrySetup(RetrySetup{RetryTable: true})
	cfg := ftl.DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := ftl.NewController(dev, ls, cfg)
	src := rng.New(3)
	for i := 0; i < 900; i++ {
		c.Write(ftl.LPN(src.Intn(300)), nil, func() {})
	}
	eng.Run()
	for i := 0; i < 300; i++ {
		c.Read(ftl.LPN(src.Intn(300)), nil, func() {})
	}
	eng.Run()
	ls.ObserveRead(0, 5, 2, nand.ReadResult{OffsetUsed: 3}, nil)
	if len(ls.ref.opm) == 0 || len(ls.ref.ort) == 0 || len(ls.ref.retry) == 0 {
		t.Fatalf("policy learned too little: %d opm, %d ort, %d retry entries", len(ls.ref.opm), len(ls.ref.ort), len(ls.ref.retry))
	}
	return ls
}

func learnedPolicy(t testing.TB) *CubeFTL { return learnedLockstep(t).cube }

func TestAppendStateMatchesReferenceEncoder(t *testing.T) {
	_, dev := testDevice(17)
	learned := learnedLockstep(t)
	for name, ls := range map[string]*lockstep{"empty": newLockstep(t, dev.Geometry(), DefaultConfig()), "learned": learned} {
		f, want := ls.cube, ls.ref.AppendState(nil)
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
	learned.roundTrip()
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

// FuzzRestoreState feeds RestoreState arbitrary bytes over a policy
// holding a learned state. The claim it checks: an image is validated
// before it is applied, so the answer is an error with AppendState's
// output unchanged, or a state that re-encodes to the same bytes —
// never a panic.
func FuzzRestoreState(f *testing.F) {
	p := learnedPolicy(f)
	good := p.AppendState(nil)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add(policyStateMagic[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		if err := p.RestoreState(good); err != nil { // every input meets the same state
			t.Fatal(err)
		}
		if err := p.RestoreState(b); err != nil {
			if !bytes.Equal(p.AppendState(nil), good) {
				t.Fatalf("a refused image of %d bytes changed the policy's state", len(b))
			}
		} else if again := p.AppendState(nil); !bytes.Equal(again, b) {
			t.Fatalf("image of %d bytes restores, and re-encodes to %d different bytes", len(b), len(again))
		}
	})
}
