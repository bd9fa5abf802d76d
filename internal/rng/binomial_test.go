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
		var dist Binomial
		dist.Reset(c.n, c.p)
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
		var dist Binomial
		dist.Reset(c.n, c.p)
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

// stateBefore returns the Source state from which the next Uint64 is
// out: SplitMix64's output function is a bijection, undone step by step.
func stateBefore(out uint64) uint64 {
	inverse := func(c uint64) uint64 { // of an odd c modulo 2^64, by Newton's iteration
		inv := c
		for i := 0; i < 6; i++ {
			inv *= 2 - c*inv
		}
		return inv
	}
	z := out ^ out>>31 ^ out>>62
	z *= inverse(0x94d049bb133111eb)
	z = z ^ z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z = z ^ z>>30 ^ z>>60
	return z - 0x9e3779b97f4a7c15
}

// maxOfDraws is the largest of count Draws: what MaxRank places.
func maxOfDraws(b *Binomial, s *Source, count int) int {
	most := 0
	for i := 0; i < count; i++ {
		if k := b.Draw(s); k > most {
			most = k
		}
	}
	return most
}

// rankOf counts the cuts k exceeds.
func rankOf(k int, cuts []int) int {
	r := 0
	for _, c := range cuts {
		if k > c {
			r++
		}
	}
	return r
}

// verdictCutSets are the cut lists the oracle tests place draws against:
// the ECC engine's (the AR margin under the limit, the limit, the last
// count inside the margin above it), single cuts on and off the fast
// paths, and cuts at and past n = 8192, which the normal kind leaves to
// its exact path.
var verdictCutSets = [][]int{{54, 72, 89}, {72}, {0}, {0, 1, 2, 3}, {31, 32}, {40, 100, 4000, 8191}, {8192}, {10000}}

// MaxRank must place the largest of count Draws against every cut list
// and leave the source where they would — for every kind, from a source
// with and without a cached Gaussian, after a Reset from another kind
// (the memo then holds stale entries past walked), and for a variate so
// close to 1 that the inversion runs off the end of the memo.
func TestMaxRankMatchesMaxOfDraws(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		kind binomialKind
	}{
		{0, 0.5, binomialZero}, {8192, 0, binomialZero}, {8192, -1, binomialZero},
		{8192, 1, binomialAll}, {7, 1.5, binomialAll},
		{1, 0.5, binomialDirect}, {64, 0.3, binomialDirect},
		{65, 0.3, binomialInvert}, {8192, 1e-6, binomialInvert}, {8192, 2e-4, binomialInvert},
		{8192, 2e-3, binomialInvert}, {8192, math.Nextafter(32.0/8192, 0), binomialInvert},
		{8192, 32.0 / 8192, binomialNormal}, {8192, 54.5 / 8192, binomialNormal}, {8192, 72.0 / 8192, binomialNormal},
		{8192, 89.5 / 8192, binomialNormal}, {8192, 0.02, binomialNormal}, {8192, 0.999, binomialNormal},
		{131072, 1e-4, binomialInvert},
	}
	pick := New(7)
	var got, want Binomial // reused across cases, as ecc.Engine reuses its own
	for _, cuts := range verdictCutSets {
		c := NewCuts(cuts...)
		for _, tc := range cases {
			for _, count := range []int{-1, 0, 1, 2, 3, 16, 17} {
				for trial := 0; trial < 50; trial++ {
					seed := pick.Uint64()
					a, b := New(seed), New(seed)
					if trial%2 == 1 { // leave the second variate of a Gaussian pair cached
						a.NormFloat64()
						b.NormFloat64()
					}
					got.Reset(tc.n, tc.p)
					want.Reset(tc.n, tc.p)
					if got.kind != tc.kind {
						t.Fatalf("n=%d p=%g: kind %d, want %d", tc.n, tc.p, got.kind, tc.kind)
					}
					g, w := got.MaxRank(a, count, c), rankOf(maxOfDraws(&want, b, count), cuts)
					if g != w || *a != *b {
						t.Fatalf("n=%d p=%g cuts=%v count=%d seed=%#x: MaxRank %d, rank of the max of draws %d, sources equal %v",
							tc.n, tc.p, cuts, count, seed, g, w, *a == *b)
					}
				}
			}
		}
	}

	// One variate of the sixteen is the largest a Source can produce: the
	// walk leaves the memo, in MaxRank as in the Draw that receives it.
	const gamma = 0x9e3779b97f4a7c15
	c := NewCuts(54, 72, 89)
	for _, tc := range []struct {
		n int
		p float64
	}{{8192, 31.9 / 8192}, {100000, 3e-4}} {
		for at := uint64(0); at < 16; at++ {
			state := stateBefore(math.MaxUint64) - at*gamma
			a, b := &Source{state: state}, &Source{state: state}
			got.Reset(tc.n, tc.p)
			want.Reset(tc.n, tc.p)
			most := maxOfDraws(&want, b, 16)
			if g, w := got.MaxRank(a, 16, c), rankOf(most, c.k); g != w || *a != *b {
				t.Fatalf("n=%d p=%g top variate at %d: MaxRank %d, rank of the max of draws %d", tc.n, tc.p, at, g, w)
			}
			if most < binomialMemo {
				t.Fatalf("n=%d p=%g top variate at %d: draw %d stayed inside the memo", tc.n, tc.p, at, most)
			}
		}
	}
}

// A NaN p takes the normal kind (every comparison with it is false) and
// used to come out as int(NaN), which the language leaves to the
// platform; it is 0 now, from Draw and MaxRank alike.
func TestBinomialNaN(t *testing.T) {
	var b Binomial
	b.Reset(8192, math.NaN())
	s, ref := New(5), New(5)
	if k := b.Draw(s); k != 0 {
		t.Errorf("Draw with NaN p = %d, want 0", k)
	}
	if r := b.MaxRank(s, 16, NewCuts(0)); r != 0 {
		t.Errorf("MaxRank with NaN p = %d, want 0 (no draw above 0)", r)
	}
	for i := 0; i < 17; i++ {
		ref.NormFloat64()
	}
	if *s != *ref {
		t.Error("NaN p did not consume one Gaussian per draw")
	}
}
