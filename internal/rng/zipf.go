package rng

import "math"

// Zipf generates Zipf-distributed integers in [0, n) with exponent theta,
// matching the YCSB "zipfian" request distribution used by the Rocks and
// Mongo workloads. Index 0 is the most popular item.
//
// The implementation follows Gray et al., "Quickly Generating Billion-
// Record Synthetic Databases" (the same algorithm YCSB uses), which draws
// a sample in O(1) after O(n)-free precomputation of zeta via incremental
// updates.
type Zipf struct {
	src   *Source
	n     uint64
	theta float64

	alpha, zetan, eta float64
	zeta2             float64
	// rank1 is 1 + 0.5^theta: u·zetan below it (and not below 1) is
	// item 1.
	rank1 float64
}

// NewZipf returns a Zipf generator over [0, n). theta must be in (0, 1);
// YCSB's default is 0.99.
func NewZipf(src *Source, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with zero n")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: NewZipf theta must be in (0,1)")
	}
	z := &Zipf{src: src, n: n, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.rank1 = 1 + math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaStatic computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledNext returns a Zipf sample whose popularity ranking is scattered
// across the key space by a stateless hash, as YCSB's scrambled-zipfian
// does, so hot keys are not clustered at low addresses.
func (z *Zipf) ScrambledNext() uint64 {
	v := z.Next()
	return fnvScramble(v) % z.n
}

func fnvScramble(v uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}
