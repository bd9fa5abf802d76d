// Package rng provides deterministic, hierarchically seedable random
// number generation for the simulator.
//
// Every model component (a chip, a block, a word line, a workload stream)
// draws from its own Source derived from a parent seed and a stable label,
// so adding randomness consumers in one place never perturbs the stream
// seen elsewhere. All experiments in this repository are reproducible
// bit-for-bit from a single root seed.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source based on SplitMix64.
// It is small (one word of state), fast, and has no shared state: each
// Source is independent and safe to use from a single goroutine.
type Source struct {
	state uint64

	// Cached second Gaussian variate from the polar method.
	haveGauss bool
	gauss     float64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// splitmix64 advances the state and returns the next 64-bit value.
func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 { return s.next() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method
// (multiply-shift with rejection to remove modulo bias).
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	threshold := -n % n
	for {
		hi, lo := bits.Mul64(s.next(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return unitFloat(s.next() >> 11) }

// unitFloat maps 53 random bits to [0, 1), exactly.
func unitFloat(bits53 uint64) float64 { return float64(bits53) / (1 << 53) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using
// the Marsaglia polar method. Handing out the cached second variate
// zeroes it, so a Source's state is a function of the draws alone.
func (s *Source) NormFloat64() float64 {
	if s.haveGauss {
		g := s.gauss
		s.haveGauss, s.gauss = false, 0
		return g
	}
	u, v, q := s.polar()
	f := polarScale(q)
	s.gauss = v * f
	s.haveGauss = true
	return u * f
}

// polar draws the polar method's point: uniform in the unit disc, origin
// excluded. u·f and v·f, f = polarScale(q), are two standard normals.
func (s *Source) polar() (u, v, q float64) {
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		q = u*u + v*v
		if q != 0 && q < 1 {
			return u, v, q
		}
	}
}

// polarScale is the polar method's factor sqrt(-2 ln q / q).
func polarScale(q float64) float64 { return math.Sqrt(-2 * math.Log(q) / q) }

// Gaussian returns a normal variate with the given mean and stddev.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponential variate with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return mean * s.ExpFloat64()
}

// Binomial returns the number of successes among n Bernoulli(p) trials.
// Exact inversion is used for small n·p; a normal approximation (clamped
// to [0, n]) is used for large n to keep the simulator fast when sampling
// bit-error counts over millions of cells.
func (s *Source) Binomial(n int, p float64) int {
	var b Binomial
	b.Reset(n, p)
	return b.Draw(s)
}

// Binomial is a binomial(n, p) distribution with its per-(n, p)
// constants worked out once, for callers that draw from the same
// distribution repeatedly (the ECC model judges the worst of a page's
// codewords, all at the page's bit error rate). Draw returns exactly the
// values Source.Binomial(n, p) would and consumes exactly the same
// randomness. A Binomial is over half a kilobyte (the CDF memo): keep one
// and Reset it rather than passing copies around.
type Binomial struct {
	n    int
	p    float64
	kind binomialKind

	// Inversion: the odds p/(1-p) of the CDF recurrence, and the CDF
	// itself as far as any draw has walked it. The recurrence does not
	// depend on the uniform variate, so later draws reuse the prefix
	// earlier ones computed: cdf[k] = P(X <= k) for k < walked, and term
	// is P(X = walked-1). Entries at and past walked are stale; walked is
	// 0 until the first walk works out P(X = 0).
	odds   float64
	cdf    [binomialMemo]float64
	walked int
	term   float64
	// Normal approximation.
	mean, sd float64
}

const (
	// binomialDirectMax is the largest n sampled as n Bernoulli trials.
	binomialDirectMax = 64
	// binomialInvertMean is the mean below which larger n are sampled by
	// inversion; from it up, by the normal approximation.
	binomialInvertMean = 32
	// binomialMemo bounds the memoised CDF prefix. Inversion is used
	// below a mean of 32, so draws beyond 64 are vanishingly rare; they
	// continue the recurrence without storing it. Inversion only sees
	// n > binomialDirectMax, so a walk inside the memo never reaches n.
	binomialMemo = binomialDirectMax
)

type binomialKind uint8

const (
	binomialZero   binomialKind = iota // n <= 0 or p <= 0: always 0
	binomialAll                        // p >= 1: always n
	binomialDirect                     // n <= binomialDirectMax: n Bernoulli trials
	binomialInvert                     // n·p < 32: inversion of the CDF
	binomialNormal                     // normal approximation
)

// Reset prepares b for binomial(n, p) in place; the zero Binomial always
// draws 0. Only the fields the new kind reads are written: walked bounds
// the valid part of the memo, so the rest of it is left as it is, and
// P(X = 0) — a Pow — waits for the first walk, which a verdict
// (MaxRank) mostly does without.
func (b *Binomial) Reset(n int, p float64) {
	b.n, b.p = n, p
	switch {
	case n <= 0 || p <= 0:
		b.kind = binomialZero
	case p >= 1:
		b.kind = binomialAll
	case n <= binomialDirectMax:
		b.kind = binomialDirect
	case float64(n)*p < binomialInvertMean:
		b.kind = binomialInvert
		b.odds = p / (1 - p)
		b.walked = 0
	default:
		b.kind = binomialNormal
		b.mean = float64(n) * p
		b.sd = math.Sqrt(b.mean * (1 - p))
	}
}

// Draw samples the distribution from s.
func (b *Binomial) Draw(s *Source) int {
	switch b.kind {
	case binomialAll:
		return b.n
	case binomialDirect:
		k := 0
		for i := 0; i < b.n; i++ {
			if s.Float64() < b.p {
				k++
			}
		}
		return k
	case binomialInvert:
		return b.invert(s.Float64())
	case binomialNormal:
		return b.round(s.NormFloat64())
	}
	return 0
}

// round is the normal approximation with continuity correction for the
// standard normal variate g, clamped to [0, n]. A NaN (p was NaN) is 0.
func (b *Binomial) round(g float64) int {
	v := math.Round(b.mean + b.sd*g)
	if !(v > 0) {
		return 0
	}
	if v > float64(b.n) {
		return b.n
	}
	return int(v)
}

// invert is Poisson-style inversion on the binomial CDF: the smallest k
// with u <= P(X <= k), walking (and extending) the memoised prefix.
func (b *Binomial) invert(u float64) int {
	if b.walked == 0 {
		b.term = math.Pow(1-b.p, float64(b.n)) // P(X = 0)
		b.cdf[0] = b.term
		b.walked = 1
	}
	for k := 0; k < binomialMemo; k++ {
		if k == b.walked {
			b.term *= (float64(b.n-k+1) / float64(k)) * b.odds
			b.cdf[k] = b.cdf[k-1] + b.term
			b.walked++
		}
		if !(u > b.cdf[k]) {
			return k
		}
	}
	// u exceeds the whole memoised prefix: continue the recurrence
	// without storing it.
	k := binomialMemo - 1
	q, cdf := b.term, b.cdf[k]
	for u > cdf && k < b.n {
		k++
		q *= (float64(b.n-k+1) / float64(k)) * b.odds
		cdf += q
	}
	return k
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// fnv1a64 hashes a label to derive child seeds.
func fnv1a64(data string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(data); i++ {
		h ^= uint64(data[i])
		h *= prime
	}
	return h
}

// Derive returns a new independent Source whose seed is a deterministic
// function of this source's seed and the label. Derive does not consume
// randomness from the parent.
func (s *Source) Derive(label string) *Source {
	return New(mix(s.state, fnv1a64(label)))
}

// DeriveN returns a child source keyed by a label and an index, e.g. one
// source per block: parent.DeriveN("block", blockID). It inlines, so a
// child that does not outlive its caller stays on the caller's stack.
func (s *Source) DeriveN(label string, n uint64) *Source {
	return New(deriveNSeed(s.state, label, n))
}

// deriveNSeed is DeriveN's child seed, kept out of DeriveN so that
// DeriveN fits the inliner's budget.
func deriveNSeed(state uint64, label string, n uint64) uint64 {
	return mix(mix(state, fnv1a64(label)), n*0x9e3779b97f4a7c15+1)
}

// mix combines two 64-bit values into a well-distributed seed.
func mix(a, b uint64) uint64 {
	z := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
