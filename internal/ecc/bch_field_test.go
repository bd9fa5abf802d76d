// A binary BCH error-correcting code — the code family SSD
// controllers of the paper's era used (a 72-bit-correcting BCH over
// 1 KB codewords): Galois-field arithmetic, systematic encoding, and
// full hard-decision decoding (syndromes, Berlekamp-Massey, Chien
// search).
//
// The package keeps its fast statistical model for bulk simulation;
// this code is the real substrate behind it, kept with the tests.
// TestStatisticalModelMatchesRealBCH cross-validates the two: the
// statistical model's pass/fail boundary matches the real decoder's at
// the same t/n ratio.

package ecc

import "fmt"

// Primitive polynomials over GF(2) for each supported extension degree,
// given as the integer whose bits are the coefficients (x^m term
// included). Standard choices from coding-theory tables.
var primitivePolys = map[int]uint32{
	4:  0x13,   // x^4 + x + 1
	5:  0x25,   // x^5 + x^2 + 1
	6:  0x43,   // x^6 + x + 1
	7:  0x89,   // x^7 + x^3 + 1
	8:  0x11d,  // x^8 + x^4 + x^3 + x^2 + 1
	9:  0x211,  // x^9 + x^4 + 1
	10: 0x409,  // x^10 + x^3 + 1
	11: 0x805,  // x^11 + x^2 + 1
	12: 0x1053, // x^12 + x^6 + x^4 + x + 1
	13: 0x201b, // x^13 + x^4 + x^3 + x + 1
}

// gfField is GF(2^m) with exp/log tables for O(1) multiplication.
type gfField struct {
	m    int
	n    int // 2^m - 1, the multiplicative group order
	exp  []uint16
	log  []uint16
	poly uint32
}

// newGFField builds GF(2^m) for 4 <= m <= 13.
func newGFField(m int) (*gfField, error) {
	poly, ok := primitivePolys[m]
	if !ok {
		return nil, fmt.Errorf("bch: no primitive polynomial for m=%d", m)
	}
	n := 1<<m - 1
	f := &gfField{m: m, n: n, poly: poly}
	f.exp = make([]uint16, 2*n)
	f.log = make([]uint16, n+1)
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = uint16(x)
		f.log[x] = uint16(i)
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("bch: polynomial %#x is not primitive for m=%d", poly, m)
	}
	// Double the exp table so Mul can skip a modulo.
	copy(f.exp[n:], f.exp[:n])
	return f, nil
}

// N returns 2^m - 1.
func (f *gfField) N() int { return f.n }

// Mul multiplies two field elements.
func (f *gfField) Mul(a, b uint16) uint16 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// Inv returns the multiplicative inverse; Inv(0) panics.
func (f *gfField) Inv(a uint16) uint16 {
	if a == 0 {
		panic("bch: inverse of zero")
	}
	return f.exp[f.n-int(f.log[a])]
}

// Pow returns alpha^e for the primitive element alpha (e may exceed n).
func (f *gfField) Pow(e int) uint16 {
	e %= f.n
	if e < 0 {
		e += f.n
	}
	return f.exp[e]
}

// Log returns the discrete log of a (a != 0).
func (f *gfField) Log(a uint16) int {
	if a == 0 {
		panic("bch: log of zero")
	}
	return int(f.log[a])
}
