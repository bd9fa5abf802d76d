package ecc

import (
	"errors"
	"fmt"
)

// bchCode is a binary BCH code of length n = 2^m - 1 correcting up to t
// bit errors. Codewords are systematic: the first K() bits are the
// message, the rest parity.
type bchCode struct {
	f   *gfField
	t   int
	n   int
	k   int
	gen []byte // generator polynomial coefficients, gen[0] = x^0 term
}

// newBCH constructs a BCH code over GF(2^m) with correction capability t.
func newBCH(m, t int) (*bchCode, error) {
	if t < 1 {
		return nil, fmt.Errorf("bch: t=%d", t)
	}
	f, err := newGFField(m)
	if err != nil {
		return nil, err
	}
	c := &bchCode{f: f, t: t, n: f.N()}
	if err := c.buildGenerator(); err != nil {
		return nil, err
	}
	c.k = c.n - (len(c.gen) - 1)
	if c.k <= 0 {
		return nil, fmt.Errorf("bch: t=%d leaves no message bits at n=%d", t, c.n)
	}
	return c, nil
}

// N returns the codeword length in bits.
func (c *bchCode) N() int { return c.n }

// K returns the message length in bits.
func (c *bchCode) K() int { return c.k }

// T returns the correction capability in bits.
func (c *bchCode) T() int { return c.t }

// ParityBits returns n - k.
func (c *bchCode) ParityBits() int { return c.n - c.k }

// buildGenerator computes g(x) = lcm of the minimal polynomials of
// alpha^1 .. alpha^(2t).
func (c *bchCode) buildGenerator() error {
	f := c.f
	covered := make([]bool, f.N())
	gen := []byte{1} // the constant polynomial 1
	for i := 1; i <= 2*c.t; i++ {
		e := i % f.N()
		if covered[e] {
			continue
		}
		// The cyclotomic coset of alpha^i: exponents e, 2e, 4e, ...
		var coset []int
		for x := e; !covered[x]; x = (2 * x) % f.N() {
			covered[x] = true
			coset = append(coset, x)
		}
		// Minimal polynomial: prod (x - alpha^j) for j in the coset,
		// computed over GF(2^m); its coefficients land in GF(2).
		min := []uint16{1}
		for _, j := range coset {
			root := f.Pow(j)
			next := make([]uint16, len(min)+1)
			for d, coef := range min {
				next[d+1] ^= coef            // x * coef
				next[d] ^= f.Mul(coef, root) // -root * coef
			}
			min = next
		}
		// Multiply into the generator (binary coefficients).
		mb := make([]byte, len(min))
		for d, coef := range min {
			if coef > 1 {
				return fmt.Errorf("bch: minimal polynomial has non-binary coefficient %d", coef)
			}
			mb[d] = byte(coef)
		}
		gen = polyMulGF2(gen, mb)
	}
	c.gen = gen
	return nil
}

// polyMulGF2 multiplies two binary polynomials (coefficient slices,
// index = degree).
func polyMulGF2(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= bj
		}
	}
	return out
}

// Encode produces the systematic codeword for a K()-bit message
// (bits as 0/1 bytes). The returned slice has N() bits: message then
// parity.
func (c *bchCode) Encode(msg []byte) ([]byte, error) {
	if len(msg) != c.k {
		return nil, fmt.Errorf("bch: message is %d bits, want %d", len(msg), c.k)
	}
	// Systematic encoding: parity = (msg(x) * x^(n-k)) mod g(x).
	p := c.ParityBits()
	rem := make([]byte, p) // remainder register, rem[0] = x^0
	for i := c.k - 1; i >= 0; i-- {
		feedback := msg[i] ^ rem[p-1]
		copy(rem[1:], rem[:p-1])
		rem[0] = 0
		if feedback == 1 {
			for d := 0; d < p; d++ {
				rem[d] ^= c.gen[d] & 1 // gen degree p term handled by shift
			}
		}
	}
	cw := make([]byte, c.n)
	// Codeword polynomial: message occupies high degrees, parity low.
	copy(cw[:p], rem)
	copy(cw[p:], msg)
	return cw, nil
}

// errUncorrectable reports more errors than the code can correct.
var errUncorrectable = errors.New("bch: uncorrectable error pattern")

// Decode corrects up to T() bit errors in place and returns the number
// corrected. The input is a full N()-bit codeword (possibly corrupted);
// on success the message is recv[ParityBits():].
func (c *bchCode) Decode(recv []byte) (int, error) {
	if len(recv) != c.n {
		return 0, fmt.Errorf("bch: received word is %d bits, want %d", len(recv), c.n)
	}
	f := c.f
	// Syndromes S_i = r(alpha^i), i = 1..2t.
	synd := make([]uint16, 2*c.t)
	allZero := true
	for i := 1; i <= 2*c.t; i++ {
		var s uint16
		for pos, bit := range recv {
			if bit != 0 {
				s ^= f.Pow(i * pos)
			}
		}
		synd[i-1] = s
		if s != 0 {
			allZero = false
		}
	}
	if allZero {
		return 0, nil
	}

	// Berlekamp-Massey: error locator sigma(x).
	sigma := []uint16{1}
	prev := []uint16{1}
	l := 0
	shift := 1
	var prevDiscrepancy uint16 = 1
	for i := 0; i < 2*c.t; i++ {
		var d uint16
		for j := 0; j <= l && j < len(sigma); j++ {
			if j <= i {
				d ^= f.Mul(sigma[j], synd[i-j])
			}
		}
		if d == 0 {
			shift++
			continue
		}
		if 2*l <= i {
			oldSigma := append([]uint16(nil), sigma...)
			sigma = polyAddScaledShift(f, sigma, prev, f.Mul(d, f.Inv(prevDiscrepancy)), shift)
			prev = oldSigma
			l = i + 1 - l
			prevDiscrepancy = d
			shift = 1
		} else {
			sigma = polyAddScaledShift(f, sigma, prev, f.Mul(d, f.Inv(prevDiscrepancy)), shift)
			shift++
		}
	}
	if l > c.t {
		return 0, fmt.Errorf("%w: locator degree %d > t=%d", errUncorrectable, l, c.t)
	}

	// Chien search: roots of sigma give error positions.
	var positions []int
	for pos := 0; pos < c.n; pos++ {
		// Evaluate sigma at alpha^(-pos).
		var v uint16
		for d, coef := range sigma {
			if coef != 0 {
				v ^= f.Mul(coef, f.Pow(-pos*d))
			}
		}
		if v == 0 {
			positions = append(positions, pos)
		}
	}
	if len(positions) != l {
		return 0, fmt.Errorf("%w: found %d roots for degree-%d locator", errUncorrectable, len(positions), l)
	}
	for _, pos := range positions {
		recv[pos] ^= 1
	}
	return len(positions), nil
}

// polyAddScaledShift returns a + scale * x^shift * b over GF(2^m).
func polyAddScaledShift(f *gfField, a, b []uint16, scale uint16, shift int) []uint16 {
	size := len(a)
	if need := len(b) + shift; need > size {
		size = need
	}
	out := make([]uint16, size)
	copy(out, a)
	for i, coef := range b {
		out[i+shift] ^= f.Mul(coef, scale)
	}
	// Trim trailing zeros.
	for len(out) > 1 && out[len(out)-1] == 0 {
		out = out[:len(out)-1]
	}
	return out
}
