package rng

import (
	"math"
	"runtime"
)

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

	// math.Pow's split of alpha: the integer power powInt, run as a
	// chain of squarings, times x^f, f the fraction it leaves. When f is
	// a rounding residue (chain), x^f is within fracSlope·(|xe|+1) +
	// fracPad of 1 for x = x1·2^xe <= 1, and index brackets it.
	powInt             int64
	fracSlope, fracPad float64
	chain              bool
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
	yi, yf := math.Modf(z.alpha)
	if yf > 0.5 { // as math.Pow rounds the split
		yf--
		yi++
	}
	z.powInt = int64(yi)
	if yf != 0 {
		// |yf·ln x| <= |yf|·(|xe|+1)·ln 2; the pad, four ulps of 1, covers
		// Exp's and Log's error, the square of the argument and this
		// line's rounding.
		z.fracSlope, z.fracPad = math.Abs(yf)*math.Ln2, 0x1p-50
	}
	// math.Pow is assembly on s390x: there is no chain to mirror.
	z.chain = runtime.GOARCH != "s390x" && math.Abs(yf) < 1e-12
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
	v := z.index(z.eta*u - z.eta + 1)
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// index returns uint64(n·Pow(x, alpha)). For the thetas whose alpha is
// an integer up to a rounding residue (0.8, 0.9 and 0.99: Pow's fraction
// is under 1e-13), Pow is Exp(f·Log(x)) — within a bracket [1-d, 1+d] —
// times its chain of squarings. index runs that chain from both ends of
// the bracket: multiplication, Ldexp, the scaling by n and the
// truncation are all monotone, so when the two ends truncate to one
// integer, Pow's value does too, and no Exp or Log is needed. Any other
// x or theta, and the rare straddle, calls Pow.
func (z *Zipf) index(x float64) uint64 {
	nf := float64(z.n)
	if z.chain && x > 0 && x <= 1 {
		x1, xe := math.Frexp(x)
		d := z.fracSlope*float64(1-xe) + z.fracPad // 1-xe = |xe|+1 below 1; ln 1 = 0
		lo, hi := powChain(x1, xe, z.powInt, 1-d, 1+d)
		if v := uint64(nf * lo); v == uint64(nf*hi) {
			return v
		}
	}
	return uint64(nf * math.Pow(x, z.alpha))
}

// powChain is math.Pow's loop over the bits of the integer power yi for
// x = x1·2^xe, run from the two starting factors lo and hi at once; it
// returns each times x^yi as Pow rounds it. Two steps are written
// without a branch on the data, rounding exactly as Pow's do: Pow's
// renormalisation x1 += x1 is the exact x1·2, and its final Ldexp is
// one correctly rounded product by 2^ae whenever 2^ae is a normal
// number.
func powChain(x1 float64, xe int, yi int64, lo, hi float64) (float64, float64) {
	ae := 0
	for i := yi; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			ae += xe // Pow's guard: the result under- or overflows
			break
		}
		if i&1 == 1 {
			lo *= x1
			hi *= x1
			ae += xe
		}
		x1 *= x1
		low := 0
		if x1 < .5 {
			low = 1
		}
		x1 *= [2]float64{1, 2}[low]
		xe = xe<<1 - low
	}
	if ae < -1022 || ae > 1023 {
		return math.Ldexp(lo, ae), math.Ldexp(hi, ae)
	}
	scale := math.Float64frombits(uint64(ae+1023) << 52)
	return lo * scale, hi * scale
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
