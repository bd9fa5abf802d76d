package ecc

import (
	"math"
	"testing"

	"cubeftl/internal/rng"
)

// Cross-validation: the statistical pass/fail model this package uses
// for bulk simulation must agree with the real BCH decoder
// (bch_code_test.go) at the same t/n ratio. BCH(1023, t=9) has t/n =
// 8.8e-3 — the same operating point as the simulator's 72-bit/1KB
// configuration.
func TestStatisticalModelMatchesRealBCH(t *testing.T) {
	code, err := newBCH(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	msg := make([]byte, code.K())
	for i := range msg {
		if src.Bool(0.5) {
			msg[i] = 1
		}
	}
	clean, err := code.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}

	for _, ber := range []float64{0.004, 0.0088, 0.014} {
		const trials = 400
		fails := 0
		for trial := 0; trial < trials; trial++ {
			cw := append([]byte(nil), clean...)
			flips := src.Binomial(code.N(), ber)
			for _, p := range src.Perm(code.N())[:flips] {
				cw[p] ^= 1
			}
			n, err := code.Decode(cw)
			if err != nil {
				fails++
				continue
			}
			// A "successful" decode that corrupted the message is a
			// miscorrection — also a failure.
			if n > code.T() {
				t.Fatalf("decoder claimed %d corrections with t=%d", n, code.T())
			}
			for i := 0; i < code.K(); i++ {
				if cw[code.ParityBits()+i] != msg[i] {
					fails++
					break
				}
			}
		}
		got := float64(fails) / trials
		want := FailProbFor(ber, code.N(), code.T(), 1)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("ber %v: real BCH failure rate %.3f vs statistical model %.3f", ber, got, want)
		}
	}
}
