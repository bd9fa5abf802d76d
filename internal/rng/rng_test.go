package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed sources diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestGaussianScaling(t *testing.T) {
	s := New(8)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Gaussian(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Errorf("mean = %v, want ~4", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", p)
	}
	if s.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.5},    // direct path
		{1000, 0.01}, // inversion path (mean 10)
		{10000, 0.3}, // normal approximation path
	}
	for _, c := range cases {
		s := New(17)
		const trials = 20000
		var sum float64
		for i := 0; i < trials; i++ {
			k := s.Binomial(c.n, c.p)
			if k < 0 || k > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, k)
			}
			sum += float64(k)
		}
		mean := sum / trials
		want := float64(c.n) * c.p
		sd := math.Sqrt(want * (1 - c.p))
		if math.Abs(mean-want) > 4*sd/math.Sqrt(trials)*10 {
			t.Errorf("Binomial(%d,%v): mean %v, want ~%v", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	s := New(19)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := s.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d", got)
	}
	if got := s.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d", got)
	}
	if got := s.Binomial(100, -0.5); got != 0 {
		t.Errorf("Binomial(100, -0.5) = %d", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(42)
	a := parent.Derive("chips")
	b := parent.Derive("blocks")
	if a.Uint64() == b.Uint64() {
		t.Error("differently labelled children produced the same first value")
	}
	// Derivation must not consume parent randomness.
	p1 := New(42)
	_ = p1.Derive("x")
	p2 := New(42)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Derive consumed parent randomness")
	}
}

func TestDeriveStability(t *testing.T) {
	a := New(42).Derive("chip").DeriveN("block", 3)
	b := New(42).Derive("chip").DeriveN("block", 3)
	if a.Uint64() != b.Uint64() {
		t.Error("identical derivation paths produced different streams")
	}
	c := New(42).Derive("chip").DeriveN("block", 4)
	d := New(42).Derive("chip").DeriveN("block", 3)
	if c.Uint64() == d.Uint64() {
		t.Error("different indices produced identical streams")
	}
}

// Every process model derives its per-block and per-h-layer sources
// through DeriveN, so its seeds are pinned: a change to them moves every
// simulated number.
func TestDeriveNPinned(t *testing.T) {
	for _, c := range []struct {
		n           uint64
		first, next uint64
	}{
		{0, 0x98f740846405fc22, 0x7589aada29fe8834},
		{1, 0x6ff3417ee2162405, 0xbed987bf604596de},
		{3, 0xf5b5ab55053e8835, 0x399ac6cd38367828},
		{427, 0x81722716148eb972, 0x04688dae6f7a9095},
	} {
		s := New(42).Derive("chip").DeriveN("b", c.n)
		if got := s.Uint64(); got != c.first {
			t.Errorf("DeriveN(b, %d): first draw %#x, want %#x", c.n, got, c.first)
		}
		if got := s.DeriveN("l", 47).Uint64(); got != c.next {
			t.Errorf("DeriveN(b, %d).DeriveN(l, 47): first draw %#x, want %#x", c.n, got, c.next)
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 20; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBinomialInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 20000)
		p := float64(pRaw) / 65535
		s := New(seed)
		k := s.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(29)
	z := NewZipf(s, 1000, 0.99)
	const trials = 100000
	counts := make([]int, 1000)
	for i := 0; i < trials; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Head must be much hotter than the tail under theta=0.99.
	if counts[0] < 10*counts[500] {
		t.Errorf("zipf insufficiently skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
	// Rank ordering should hold approximately between head items.
	if counts[0] < counts[10] {
		t.Errorf("rank order violated: counts[0]=%d < counts[10]=%d", counts[0], counts[10])
	}
}

func TestZipfScrambledRange(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 12345, 0.99)
	for i := 0; i < 10000; i++ {
		if v := z.ScrambledNext(); v >= 12345 {
			t.Fatalf("ScrambledNext out of range: %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	s := New(1)
	for _, c := range []struct {
		n     uint64
		theta float64
	}{{0, 0.99}, {10, 0}, {10, 1}, {10, 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", c.n, c.theta)
				}
			}()
			NewZipf(s, c.n, c.theta)
		}()
	}
}

// zipfNextReference is Zipf.Next as it stood before the rank-1 threshold
// was hoisted into NewZipf: the constant is recomputed on every call.
func zipfNextReference(z *Zipf) uint64 {
	u := z.src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Next must match the reference draw for draw at the benchmark
// workloads' footprints (Mixed over the 2x4x128 device and the served
// 4x2x64 one, YCSB-C and OLTP over 2x4x128, Rocks over 2x4x64) and at
// every theta the workloads use. 0.8, 0.9 and 0.99 take the bracketed
// chain; 0.7's alpha has a real fraction and takes Pow.
func TestZipfMatchesReference(t *testing.T) {
	for _, theta := range []float64{0.7, 0.8, 0.9, 0.99} {
		for _, n := range []uint64{2, 1000, 154828, 180633, 309657, 361267, 1 << 20} {
			got, ref := NewZipf(New(41), n, theta), NewZipf(New(41), n, theta)
			if want := theta != 0.7; got.chain != want {
				t.Fatalf("theta=%v: bracketed chain %v, want %v", theta, got.chain, want)
			}
			ranks := [3]int{}
			for i := 0; i < 100000; i++ {
				g, w := got.Next(), zipfNextReference(ref)
				if g != w {
					t.Fatalf("theta=%v n=%d sample %d: Next %d, reference %d", theta, n, i, g, w)
				}
				if g < 2 {
					ranks[g]++
				} else {
					ranks[2]++
				}
			}
			if *got.src != *ref.src {
				t.Fatalf("theta=%v n=%d: source state diverged from the reference", theta, n)
			}
			if ranks[0] == 0 || ranks[1] == 0 || (n > 2 && ranks[2] == 0) {
				t.Fatalf("theta=%v n=%d: a branch of Next was never taken: %v", theta, n, ranks)
			}
		}
	}
}

// index must give Pow's integer for every x: random ones; x so small
// that Pow's chain gives up (its guard against an exponent overflow),
// subnormal x and x = 1; thetas whose alpha is an exact integer (0.5,
// 0.75: no fraction, no bracket); and, where the bracket matters, the
// x within a few ulps of where n·x^alpha crosses an integer.
func TestZipfIndexMatchesPow(t *testing.T) {
	src := New(43)
	xs := []float64{1, math.Nextafter(1, 0), 0.5, 1e-3, 1e-30, 1e-300, 5e-324, math.SmallestNonzeroFloat64 * 3}
	for i := 0; i < 20000; i++ {
		xs = append(xs, src.Float64(), math.Pow(src.Float64(), 8), math.Nextafter(src.Float64(), 1))
	}
	straddles := 0
	for _, theta := range []float64{0.5, 0.75, 0.8, 0.9, 0.99} {
		for _, n := range []uint64{3, 309657, 1 << 20} {
			z := NewZipf(New(1), n, theta)
			check := func(x float64) {
				got, want := z.index(x), uint64(float64(n)*math.Pow(x, z.alpha))
				if got != want {
					t.Fatalf("theta=%v n=%d x=%v: index %d, Pow %d", theta, n, x, got, want)
				}
				if z.chain && x > 0 && x <= 1 {
					x1, xe := math.Frexp(x)
					d := z.fracSlope*float64(1-xe) + z.fracPad
					if lo, hi := powChain(x1, xe, z.powInt, 1-d, 1+d); uint64(float64(n)*lo) != uint64(float64(n)*hi) {
						straddles++
					}
				}
			}
			for _, x := range xs {
				check(x)
			}
			for i := 0; i < 300; i++ {
				m := 1 + src.Uint64n(n-1)
				x := math.Pow(float64(m)/float64(n), 1/z.alpha)
				for j := 0; j < 12; j++ {
					x = math.Nextafter(x, 0)
				}
				for j := 0; j < 24; j++ {
					check(x)
					x = math.Nextafter(x, 1)
				}
			}
		}
	}
	if straddles == 0 {
		t.Error("no x landed inside a bracket: the straddle fall-back went untested")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Binomial(131072, 1e-4)
	}
}

func BenchmarkZipf(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1<<20, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
