package rng_test

import (
	"math"
	"testing"

	"cubeftl/internal/rng"
)

// eccCuts are the ECC engine's cuts: the AR margin under the correction
// limit, the limit, and the last count inside the margin above it.
var eccCuts = []int{54, 72, 89}

// maxNormal draws count standard normals and returns the largest.
func maxNormal(s *rng.Source, count int) float64 {
	g := math.Inf(-1)
	for i := 0; i < count; i++ {
		g = math.Max(g, s.NormFloat64())
	}
	return g
}

// rankOfMax is the oracle: the largest of count Draws, placed against the
// cuts.
func rankOfMax(b *rng.Binomial, s *rng.Source, count int, cuts []int) int {
	most := 0
	for i := 0; i < count; i++ {
		most = max(most, b.Draw(s))
	}
	r := 0
	for _, c := range cuts {
		if most > c {
			r++
		}
	}
	return r
}

// crossing returns the p at which mean + sd·g, the normal approximation
// at n = 8192 for the variate g, reaches k + 0.5: the smallest float p
// whose largest draw exceeds k.
func crossing(g float64, k int) float64 {
	lo, hi := 32.0/8192, 0.5 // the normal kind's range, where g <= 12 crosses every cut
	for math.Nextafter(lo, 1) < hi {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		mean := 8192 * mid
		if math.Round(mean+math.Sqrt(mean*(1-mid))*g) > float64(k) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// A page whose largest variate lands on a cut — mean + sd·g within a few
// ulps of k + 0.5 — is inside every bracket: MaxRank must fall back to
// the exact value there, and still agree with the draws on both sides of
// the crossing.
func TestMaxRankOnTheCuts(t *testing.T) {
	cuts := rng.NewCuts(eccCuts...)
	var exact [3]int
	defer rng.CountExact(&exact)()
	var b rng.Binomial
	for seed := uint64(1); seed <= 40; seed++ {
		g := maxNormal(rng.New(seed), 16)
		for _, k := range eccCuts {
			p := crossing(g, k)
			for step := -20; step <= 20; step++ {
				q := p
				for i := 0; i < step; i++ {
					q = math.Nextafter(q, 1)
				}
				for i := 0; i > step; i-- {
					q = math.Nextafter(q, 0)
				}
				before := exact[rng.ExactPair]
				src, ref := rng.New(seed), rng.New(seed)
				b.Reset(8192, q)
				got := b.MaxRank(src, 16, cuts)
				var want rng.Binomial
				want.Reset(8192, q)
				if w := rankOfMax(&want, ref, 16, eccCuts); got != w || *src != *ref {
					t.Fatalf("seed %d cut %d p=%v (%+d ulps): MaxRank %d, oracle %d, sources equal %v",
						seed, k, q, step, got, w, *src == *ref)
				}
				if exact[rng.ExactPair] == before {
					t.Fatalf("seed %d cut %d p=%v (%+d ulps): a variate on the cut was placed without its exact value", seed, k, q, step)
				}
			}
		}
	}
}

// Away from the cuts the brackets decide: over pages at bit error rates
// from a fresh device's to three times the correction limit, most pages
// are placed without a walk of the CDF or a Log, and every page agrees
// with the draws.
func TestMaxRankMostlyFast(t *testing.T) {
	cuts := rng.NewCuts(eccCuts...)
	var exact [3]int
	defer rng.CountExact(&exact)()
	var b, want rng.Binomial
	src, ref := rng.New(3), rng.New(3)
	pages := map[bool]int{}
	for i := 0; i < 20000; i++ {
		p := 1e-4 * math.Pow(270, float64(i%100)/99) // 1e-4 .. 0.027, log-spaced
		b.Reset(8192, p)
		want.Reset(8192, p)
		if g, w := b.MaxRank(src, 16, cuts), rankOfMax(&want, ref, 16, eccCuts); g != w || *src != *ref {
			t.Fatalf("page %d p=%g: MaxRank %d, oracle %d", i, p, g, w)
		}
		pages[8192*p < 32]++
	}
	t.Logf("walks %d of %d inverted pages, exact pairs %d of %d", exact[rng.ExactWalk], pages[true], exact[rng.ExactPair], pages[false]*8)
	if exact[rng.ExactDraws] != 0 {
		t.Errorf("%d pages took every draw exactly", exact[rng.ExactDraws])
	}
	if walks, inverted := exact[rng.ExactWalk], pages[true]; walks == 0 || walks*20 > inverted {
		t.Errorf("%d of %d inverted pages walked the CDF, want a few percent", walks, inverted)
	}
	if pairs, normal := exact[rng.ExactPair], pages[false]*8; pairs == 0 || pairs*4 > normal {
		t.Errorf("%d of %d polar pairs needed Log and Sqrt, want under a quarter", pairs, normal)
	}
}
