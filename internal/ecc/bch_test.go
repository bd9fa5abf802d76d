package ecc

import (
	"errors"
	"testing"
	"testing/quick"

	"cubeftl/internal/rng"
)

func TestFieldBasics(t *testing.T) {
	for m := 4; m <= 13; m++ {
		f, err := newGFField(m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if f.N() != 1<<m-1 {
			t.Fatalf("m=%d: N=%d", m, f.N())
		}
		// alpha^N = 1.
		if f.Pow(f.N()) != 1 {
			t.Errorf("m=%d: alpha^N != 1", m)
		}
		// Inverses.
		for _, a := range []uint16{1, 2, 3, uint16(f.N())} {
			if got := f.Mul(a, f.Inv(a)); got != 1 {
				t.Errorf("m=%d: a*Inv(a) = %d for a=%d", m, got, a)
			}
		}
	}
}

func TestFieldMulProperties(t *testing.T) {
	f, _ := newGFField(8)
	src := rng.New(1)
	for i := 0; i < 2000; i++ {
		a := uint16(src.Intn(f.N() + 1))
		b := uint16(src.Intn(f.N() + 1))
		c := uint16(src.Intn(f.N() + 1))
		if f.Mul(a, b) != f.Mul(b, a) {
			t.Fatal("multiplication not commutative")
		}
		if f.Mul(a, f.Mul(b, c)) != f.Mul(f.Mul(a, b), c) {
			t.Fatal("multiplication not associative")
		}
		if f.Mul(a, 1) != a {
			t.Fatal("1 not identity")
		}
		if f.Mul(a, 0) != 0 {
			t.Fatal("0 not absorbing")
		}
	}
}

func TestUnsupportedField(t *testing.T) {
	if _, err := newGFField(3); err == nil {
		t.Error("m=3 accepted")
	}
	if _, err := newBCH(20, 2); err == nil {
		t.Error("m=20 accepted")
	}
}

// BCH(15, 5, t=3) is the classic textbook code with generator
// x^10+x^8+x^5+x^4+x^2+x+1 (coefficients 10100110111).
func TestKnownGenerator15_5(t *testing.T) {
	c, err := newBCH(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 15 || c.K() != 5 {
		t.Fatalf("n=%d k=%d, want 15/5", c.N(), c.K())
	}
	want := []byte{1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1} // degree 0..10
	if len(c.gen) != len(want) {
		t.Fatalf("generator degree %d, want 10", len(c.gen)-1)
	}
	for i := range want {
		if c.gen[i] != want[i] {
			t.Fatalf("generator = %v, want %v", c.gen, want)
		}
	}
}

func TestEncodeProducesValidCodeword(t *testing.T) {
	c, err := newBCH(6, 4) // BCH(63, k, t=4)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		msg := randomBits(src, c.K())
		cw, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		// Valid codewords decode with zero corrections.
		n, err := c.Decode(cw)
		if err != nil || n != 0 {
			t.Fatalf("clean codeword decoded with n=%d err=%v", n, err)
		}
		// And the message is recoverable systematically.
		for i := 0; i < c.K(); i++ {
			if cw[c.ParityBits()+i] != msg[i] {
				t.Fatal("not systematic")
			}
		}
	}
}

func TestEncodeSizeValidation(t *testing.T) {
	c, _ := newBCH(5, 2)
	if _, err := c.Encode(make([]byte, c.K()+1)); err == nil {
		t.Error("wrong message size accepted")
	}
	if _, err := c.Decode(make([]byte, c.N()-1)); err == nil {
		t.Error("wrong codeword size accepted")
	}
}

func corruptAndDecode(t *testing.T, c *bchCode, src *rng.Source, nErrors int) error {
	t.Helper()
	msg := randomBits(src, c.K())
	cw, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	positions := src.Perm(c.N())[:nErrors]
	for _, p := range positions {
		cw[p] ^= 1
	}
	n, err := c.Decode(cw)
	if err != nil {
		return err
	}
	if n != nErrors {
		t.Fatalf("corrected %d, injected %d", n, nErrors)
	}
	for i := 0; i < c.K(); i++ {
		if cw[c.ParityBits()+i] != msg[i] {
			t.Fatal("message corrupted after successful decode")
		}
	}
	return nil
}

func TestCorrectsUpToT(t *testing.T) {
	for _, cfg := range []struct{ m, t int }{{4, 3}, {5, 3}, {6, 4}, {8, 8}, {10, 9}} {
		c, err := newBCH(cfg.m, cfg.t)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(uint64(cfg.m*100 + cfg.t))
		for e := 0; e <= c.T(); e++ {
			for trial := 0; trial < 10; trial++ {
				if err := corruptAndDecode(t, c, src, e); err != nil {
					t.Fatalf("BCH(m=%d,t=%d) failed at %d errors: %v", cfg.m, cfg.t, e, err)
				}
			}
		}
	}
}

func TestBeyondTDetectedOrMiscorrected(t *testing.T) {
	// Past t errors the decoder may miscorrect (that is information
	// theory, not a bug) but must not panic and usually reports
	// uncorrectable.
	c, err := newBCH(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	detected := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		msg := randomBits(src, c.K())
		cw, _ := c.Encode(msg)
		for _, p := range src.Perm(c.N())[:c.T()*2] {
			cw[p] ^= 1
		}
		if _, err := c.Decode(cw); errors.Is(err, errUncorrectable) {
			detected++
		}
	}
	if detected < trials/2 {
		t.Errorf("only %d/%d 2t-error patterns detected", detected, trials)
	}
}

func TestQuickRandomErrorPatterns(t *testing.T) {
	c, err := newBCH(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, eRaw uint8) bool {
		src := rng.New(seed)
		e := int(eRaw) % (c.T() + 1)
		msg := randomBits(src, c.K())
		cw, err := c.Encode(msg)
		if err != nil {
			return false
		}
		for _, p := range src.Perm(c.N())[:e] {
			cw[p] ^= 1
		}
		n, err := c.Decode(cw)
		if err != nil || n != e {
			return false
		}
		for i := 0; i < c.K(); i++ {
			if cw[c.ParityBits()+i] != msg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The SSD-scale code: 1 KB codewords want n=8191 (m=13). Building the
// full t=72 code is expensive, so validate a t=16 variant at full
// length.
func TestFullLengthCode(t *testing.T) {
	if testing.Short() {
		t.Skip("large code")
	}
	c, err := newBCH(13, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 8191 {
		t.Fatalf("n = %d", c.N())
	}
	if c.ParityBits() > 13*16 {
		t.Fatalf("parity bits = %d, want <= %d", c.ParityBits(), 13*16)
	}
	src := rng.New(3)
	for _, e := range []int{0, 1, 8, 16} {
		if err := corruptAndDecode(t, c, src, e); err != nil {
			t.Fatalf("%d errors: %v", e, err)
		}
	}
}

func randomBits(src *rng.Source, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		if src.Bool(0.5) {
			b[i] = 1
		}
	}
	return b
}

func BenchmarkDecode8Errors(b *testing.B) {
	c, err := newBCH(10, 9)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(4)
	msg := randomBits(src, c.K())
	clean, _ := c.Encode(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := append([]byte(nil), clean...)
		for _, p := range src.Perm(c.N())[:8] {
			cw[p] ^= 1
		}
		if _, err := c.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}

// The exact code class the simulator's ECC model represents: 72-bit
// correction over an 8191-bit codeword (1 KB of data plus parity).
func TestSSDScaleCode(t *testing.T) {
	if testing.Short() {
		t.Skip("t=72 code construction and decode are heavyweight")
	}
	c, err := newBCH(13, 72)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 8191 {
		t.Fatalf("n = %d", c.N())
	}
	if c.K() < 8192-13*72 {
		t.Fatalf("k = %d, parity overhead too high", c.K())
	}
	src := rng.New(21)
	for _, e := range []int{0, 1, 36, 72} {
		if err := corruptAndDecode(t, c, src, e); err != nil {
			t.Fatalf("%d errors: %v", e, err)
		}
	}
	// 73 errors must not silently "succeed" as a valid decode of the
	// original message (detection or miscorrection, never both-ways).
	msg := randomBits(src, c.K())
	cw, _ := c.Encode(msg)
	for _, p := range src.Perm(c.N())[:73] {
		cw[p] ^= 1
	}
	if _, err := c.Decode(cw); err == nil {
		for i := 0; i < c.K(); i++ {
			if cw[c.ParityBits()+i] != msg[i] {
				return // miscorrected to some other codeword: allowed
			}
		}
		t.Fatal("decoder claimed to fix 73 errors back to the original message")
	}
}
