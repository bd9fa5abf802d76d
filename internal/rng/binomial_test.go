package rng

import (
	"math"
	"testing"
)

// binomialReference is Source.Binomial as it stood before the
// distribution's set-up was split from the draw: every constant is
// recomputed on every call. The prepared form must match it value for
// value and draw for draw.
func binomialReference(s *Source, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	}
	if mean < 32 {
		q := math.Pow(1-p, float64(n))
		u := s.Float64()
		k := 0
		cdf := q
		for u > cdf && k < n {
			k++
			q *= (float64(n-k+1) / float64(k)) * (p / (1 - p))
			cdf += q
		}
		return k
	}
	sd := math.Sqrt(mean * (1 - p))
	v := math.Round(s.Gaussian(mean, sd))
	if v < 0 {
		v = 0
	}
	if v > float64(n) {
		v = float64(n)
	}
	return int(v)
}

func TestPreparedBinomialMatchesReference(t *testing.T) {
	pick := New(99)
	type np struct {
		n int
		p float64
	}
	cases := []np{
		{0, 0.5}, {-3, 0.5}, {100, 0}, {100, -0.1}, {100, 1}, {100, 1.5}, {7, 1},
		{1, 0.5}, {64, 0.3}, {65, 0.3}, // direct / first n past it
		{8192, 1e-4}, {8192, 2e-3}, {8192, 31.9 / 8192}, // inversion, up to its edge
		{8192, 32.0 / 8192}, {8192, 72.0 / 8192}, {8192, 0.5}, {8192, 0.999}, // normal
		{131072, 1e-4}, {1 << 20, 1e-9},
	}
	for i := 0; i < 300; i++ {
		n := pick.Intn(20000) - 10
		p := pick.Float64()
		switch pick.Intn(4) {
		case 0:
			p *= 1e-3 // the BER range: inversion for page-sized n
		case 1:
			p = p*1.2 - 0.1 // includes p <= 0 and p >= 1
		}
		cases = append(cases, np{n, p})
	}
	for _, c := range cases {
		seed := pick.Uint64()
		ref, got, one := New(seed), New(seed), New(seed)
		dist := NewBinomial(c.n, c.p)
		for draw := 0; draw < 16; draw++ {
			want := binomialReference(ref, c.n, c.p)
			if v := dist.Draw(got); v != want {
				t.Fatalf("n=%d p=%g draw %d: prepared %d, reference %d", c.n, c.p, draw, v, want)
			}
			if v := one.Binomial(c.n, c.p); v != want {
				t.Fatalf("n=%d p=%g draw %d: Binomial %d, reference %d", c.n, c.p, draw, v, want)
			}
			if *got != *ref || *one != *ref {
				t.Fatalf("n=%d p=%g draw %d: source state diverged from the reference", c.n, c.p, draw)
			}
		}
	}
}

// invertReference is the inversion branch of binomialReference for a
// given uniform variate.
func invertReference(n int, p, u float64) int {
	q := math.Pow(1-p, float64(n))
	k := 0
	cdf := q
	for u > cdf && k < n {
		k++
		q *= (float64(n-k+1) / float64(k)) * (p / (1 - p))
		cdf += q
	}
	return k
}

// The memoised CDF prefix must give the reference's answer whatever
// order variates arrive in — short walks after long ones, variates past
// the end of the memo, and a variate no partial sum ever reaches (the
// walk then runs to n).
func TestBinomialInversionMemo(t *testing.T) {
	src := New(3)
	for _, c := range []struct {
		n int
		p float64
	}{{8192, 1e-4}, {8192, 2e-3}, {8192, 31.9 / 8192}, {65, 0.4}, {131072, 1e-4}, {100000, 3e-4}} {
		dist := NewBinomial(c.n, c.p)
		if dist.kind != binomialInvert {
			t.Fatalf("n=%d p=%g is not an inversion case", c.n, c.p)
		}
		us := []float64{0, 0.5, 1 - 1e-15, 1e-300, 0.999999, 0.1, math.Nextafter(1, 0), 0.3}
		for i := 0; i < 200; i++ {
			u := src.Float64()
			if i%3 == 0 {
				u = 1 - u*1e-9 // deep in the upper tail
			}
			us = append(us, u)
		}
		pastMemo := false
		for _, u := range us {
			want := invertReference(c.n, c.p, u)
			if got := dist.invert(u); got != want {
				t.Fatalf("n=%d p=%g u=%v: memoised inversion %d, reference %d", c.n, c.p, u, got, want)
			}
			pastMemo = pastMemo || want >= binomialMemo
		}
		if c.n > 1000 && c.p*float64(c.n) > 20 && !pastMemo {
			t.Fatalf("n=%d p=%g: no variate walked past the memo", c.n, c.p)
		}
	}
}
