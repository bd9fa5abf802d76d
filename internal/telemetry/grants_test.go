package telemetry

import "testing"

// The grant hash is the determinism fingerprint shared with the host
// front end's historical implementation: FNV-1a offset basis folded
// with (idx+1) per grant. This test pins the exact fold.
func TestGrantHashMatchesFNVFold(t *testing.T) {
	g := NewGrantTrace()
	if g.Hash() != fnvOffset {
		t.Fatalf("empty hash = %#x, want offset basis", g.Hash())
	}
	seq := []int{0, 3, 1, 1, 2}
	want := fnvOffset
	for _, idx := range seq {
		g.Grant(idx)
		want = (want ^ uint64(idx+1)) * fnvPrime
	}
	if g.Hash() != want {
		t.Errorf("hash = %#x, want %#x", g.Hash(), want)
	}
	if g.Grants() != int64(len(seq)) {
		t.Errorf("Grants = %d, want %d", g.Grants(), len(seq))
	}
}

// Two traces fed the same sequence agree; diverging one grant diverges
// the hash.
func TestGrantHashDistinguishesSequences(t *testing.T) {
	a, b := NewGrantTrace(), NewGrantTrace()
	for i := 0; i < 100; i++ {
		a.Grant(i % 4)
		b.Grant(i % 4)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("identical sequences hash differently")
	}
	b.Grant(0)
	if a.Hash() == b.Hash() {
		t.Fatal("diverged sequences share a hash")
	}
}
