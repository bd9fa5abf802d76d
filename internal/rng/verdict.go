package rng

import "math"

// Cuts is an ascending list of counts against which Binomial.MaxRank
// places the largest of a set of draws. Build it once with NewCuts and
// share it: it carries the inversion bound of its lowest cut.
type Cuts struct {
	k []int
	// tail bounds P(X > k[0]) for every binomial MaxRank inverts (mean
	// below binomialInvertMean): the Chernoff bound e^-μ (eμ/a)^a at
	// a = k[0]+1, which grows with μ while μ < a, taken at μ = 32. 1 when
	// it bounds nothing. At k[0] = 54 it is 1.1e-3; at 72, 4.6e-9.
	tail float64
}

// maxCuts bounds len(Cuts.k): the normal kind keeps one bracket per cut
// on the stack.
const maxCuts = 4

// NewCuts returns the cut list k, which must hold 1 to 4 ascending,
// non-negative counts.
func NewCuts(k ...int) *Cuts {
	if len(k) == 0 || len(k) > maxCuts {
		panic("rng: NewCuts takes 1 to 4 cuts")
	}
	for i, v := range k {
		if v < 0 || (i > 0 && v <= k[i-1]) {
			panic("rng: NewCuts needs ascending, non-negative cuts")
		}
	}
	c := &Cuts{k: append([]int(nil), k...), tail: 1}
	if a, mu := float64(k[0]+1), float64(binomialInvertMean); a > mu {
		// The last factor covers a mean a rounding above 32 and the
		// rounding of this line.
		c.tail = math.Min(1, math.Exp(a*(1+math.Log(mu/a))-mu)*(1+1e-6))
	}
	return c
}

// rank is how many cuts k exceeds.
func (c *Cuts) rank(k int) int {
	r := 0
	for r < len(c.k) && k > c.k[r] {
		r++
	}
	return r
}

// MaxRank returns how many of the cuts the largest of count draws
// exceeds — 0 when count <= 0 — and leaves s exactly where count calls of
// Draw would. It draws the same variates in the same order (the polar
// method's rejections and a pair's cached second Gaussian included), and
// works out only as much of the largest draw as placing it needs.
//
// Both samplers used for large n are nondecreasing in their variate —
// invert is "smallest k with u <= cdf[k]" over partial sums of
// non-negative terms, memo and tail alike; round is a rounding and a
// clamp of mean + sd·g with sd > 0 — so the largest draw is the one the
// largest variate gives, and each is placed without the draw:
//
//   - Inversion keeps the largest uniform u. Every draw is at most k[0]
//     when u <= 1 - eps, eps being the Chernoff tail (Cuts.tail) plus a
//     bound on the rounding of Pow and of the recurrence; past it the CDF
//     is walked as Draw walks it.
//   - Normal: a polar pair's larger variate is max(u, v)·f. A bracket on
//     f² from bounds on -ln q places it against each cut's threshold in
//     most pairs; Log and Sqrt run only for a pair whose bracket reaches
//     a threshold, and for a trailing half pair, whose second variate is
//     cached exactly as NormFloat64 caches it.
//
// The other kinds, and a source that already holds a cached Gaussian,
// take every draw and the largest exactly.
func (b *Binomial) MaxRank(s *Source, count int, c *Cuts) int {
	switch b.kind {
	case binomialInvert:
		// Float64 is increasing in the 53 bits it keeps: compare those.
		top := uint64(0)
		for i := 0; i < count; i++ {
			if v := s.next() >> 11; v > top {
				top = v
			}
		}
		if float64(top) <= b.invertClear(c) {
			return 0
		}
		noteExact(exactWalk)
		return c.rank(b.invert(unitFloat(top)))
	case binomialNormal:
		if !s.haveGauss && b.sd > 0 && c.k[len(c.k)-1] < b.n {
			return b.normalRank(s, count, c)
		}
		noteExact(exactDraws)
		g := math.Inf(-1)
		for i := 0; i < count; i++ {
			if v := s.NormFloat64(); v > g {
				g = v
			}
		}
		return c.rank(b.round(g))
	}
	noteExact(exactDraws)
	most := 0
	for i := 0; i < count; i++ {
		if k := b.Draw(s); k > most {
			most = k
		}
	}
	return c.rank(most)
}

// invertClear is the largest 53-bit variate, as a float64, that inverts
// to at most c.k[0] (-1 when the bound is too loose to use). The computed
// cdf[k] is within (2n + 6k + 1)·2^-53 of the true one: Pow(1-p, n) is
// within n ulps of its value and 1-p's rounding moves it n more, each
// step of the recurrence adds about four roundings and each partial sum
// one. Twice that, plus the tail, is eps.
func (b *Binomial) invertClear(c *Cuts) float64 {
	eps := c.tail + float64(2*b.n+6*c.k[0]+8)*0x1p-52
	if eps >= 0x1p-8 {
		return -1
	}
	return (1 - eps) * (1 << 53)
}

// normalRank is MaxRank for the normal kind from a source with no cached
// Gaussian, with every cut below n: the largest draw exceeds cut k
// exactly when mean + sd·g >= k + 0.5, g the largest variate, so each cut
// is a threshold t = (k + 0.5 - mean)/sd on g. A pair is placed against
// the band [t - e, t + e]; e, over a billionth of t, of 1 and of mean/sd,
// dwarfs the rounding of f, of the product, of mean + sd·g and of t.
func (b *Binomial) normalRank(s *Source, count int, c *Cuts) int {
	var bands [maxCuts]band
	inv := 1 / b.sd
	for j, k := range c.k {
		t := (float64(k) + 0.5 - b.mean) * inv
		e := 1e-9 * (1 + math.Abs(t) + b.mean*inv)
		bands[j] = band{lo: t - e, hi: t + e, lo2: (t - e) * (t - e), hi2: (t + e) * (t + e)}
	}
	rank := 0
	for i := 0; i < count; i += 2 {
		if i+1 == count {
			noteExact(exactPair)
			if r := c.rank(b.round(s.NormFloat64())); r > rank {
				rank = r
			}
			break
		}
		u, v, q := s.polar()
		m := u
		if v > m {
			m = v
		}
		a, q1, q3 := 2*m*m*(1-q), q*(1+q), q*q*q
		for rank < len(c.k) {
			above, known := bands[rank].place(m, a, q1, q3)
			if !known {
				// m·f rounds exactly as the larger of u·f and v·f.
				noteExact(exactPair)
				if r := c.rank(b.round(m * polarScale(q))); r > rank {
					rank = r
				}
				break
			}
			if !above {
				break
			}
			rank++
		}
	}
	return rank
}

// band is one cut's threshold band [lo, hi] on the largest variate, with
// the squares place compares against.
type band struct{ lo, hi, lo2, hi2 float64 }

// place puts g = m·f, f = polarScale(q), above hi or below lo without
// computing f. With 2(1-q)/(1+q) <= -ln q <= (1-q)/√q, g² lies in
// [2a/(q(1+q)), a/(q√q)] for a = 2m²(1-q); each comparison is multiplied
// through by q(1+q) = q1, or squared and multiplied through by q³ = q3,
// so no division or square root is taken. known is false when the
// bracket reaches into [lo, hi] (or m is 0).
func (bd *band) place(m, a, q1, q3 float64) (above, known bool) {
	switch {
	case m > 0:
		if bd.hi <= 0 || 2*a > bd.hi2*q1 {
			return true, true
		}
		if bd.lo > 0 && a*a < bd.lo2*bd.lo2*q3 {
			return false, true
		}
	case m < 0:
		if bd.lo >= 0 || 2*a > bd.lo2*q1 {
			return false, true
		}
		if bd.hi < 0 && a*a < bd.hi2*bd.hi2*q3 {
			return true, true
		}
	}
	return false, false
}

// MaxRank's exact fall-backs, reported to traceExact.
const (
	exactWalk  = iota // inversion: the largest variate is past the bound
	exactPair         // normal: a pair's bracket reaches a threshold, or a half pair
	exactDraws        // every draw taken and the largest computed
)

// traceExact, nil outside tests, hears each exact fall-back.
var traceExact func(path int)

func noteExact(path int) {
	if traceExact != nil {
		traceExact(path)
	}
}
