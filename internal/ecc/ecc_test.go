package ecc

import (
	"math"
	"testing"
	"testing/quick"

	"cubeftl/internal/rng"
)

func TestCodewordsPerPage(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{16384, 16}, {4096, 4}, {1024, 1}, {512, 1}, {0, 1},
	}
	for _, c := range cases {
		if got := CodewordsPerPage(c.bytes); got != c.want {
			t.Errorf("CodewordsPerPage(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestDecodeCleanPage(t *testing.T) {
	e := NewEngine(rng.New(1))
	for i := 0; i < 100; i++ {
		res := e.Decode(1e-4, 16384)
		if !res.Correctable {
			t.Fatalf("page at BER 1e-4 failed to decode: %+v", res)
		}
	}
}

func TestDecodeHopelessPage(t *testing.T) {
	e := NewEngine(rng.New(2))
	for i := 0; i < 100; i++ {
		res := e.Decode(10*LimitBER, 16384)
		if res.Correctable {
			t.Fatalf("page at 10x limit BER decoded: %+v", res)
		}
	}
}

func TestDecodeBoundaryIsSoft(t *testing.T) {
	e := NewEngine(rng.New(3))
	fails := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if !e.Decode(LimitBER, 1024).Correctable {
			fails++
		}
	}
	f := float64(fails) / trials
	if f < 0.25 || f > 0.75 {
		t.Errorf("failure rate at the capability limit = %.3f, want ~0.5", f)
	}
}

// The verdict is the worst codeword's: at a per-codeword mean of 45 a
// single codeword stays at or under the AR margin (54 errors) with
// probability phi((54.5 - 45)/sd), and a page of sixteen only when all
// sixteen do.
func TestDecodeErrorAccounting(t *testing.T) {
	e := NewEngine(rng.New(4))
	const ber, trials = 45.0 / CodewordBits, 4000
	clearBelow := func(pageBytes int) float64 {
		n := 0
		for i := 0; i < trials; i++ {
			if res := e.Decode(ber, pageBytes); res.Correctable && res.ARClear {
				n++
			}
		}
		return float64(n) / trials
	}
	mean := ber * CodewordBits
	one := phi((54.5 - mean) / math.Sqrt(mean*(1-ber)))
	for _, c := range []struct {
		codewords int
		want      float64
	}{{1, one}, {16, math.Pow(one, 16)}} {
		if got := clearBelow(c.codewords * CodewordBytes); math.Abs(got-c.want) > 0.03 {
			t.Errorf("%d codewords: worst codeword under the AR margin in %.3f of pages, want %.3f", c.codewords, got, c.want)
		}
	}
}

func TestFailProbEndpointsAndMonotonicity(t *testing.T) {
	if FailProb(0, 16384) != 0 {
		t.Error("FailProb(0) != 0")
	}
	if FailProb(1, 16384) != 1 {
		t.Error("FailProb(1) != 1")
	}
	prev := -1.0
	for ber := 1e-5; ber < 0.1; ber *= 1.5 {
		p := FailProb(ber, 16384)
		if p < prev-1e-12 {
			t.Fatalf("FailProb not monotone at ber=%v", ber)
		}
		if p < 0 || p > 1 {
			t.Fatalf("FailProb(%v) = %v out of [0,1]", ber, p)
		}
		prev = p
	}
	if p := FailProb(1e-4, 16384); p > 1e-6 {
		t.Errorf("FailProb at healthy BER = %v, want ~0", p)
	}
	if p := FailProb(3*LimitBER, 16384); p < 0.999 {
		t.Errorf("FailProb at 3x limit = %v, want ~1", p)
	}
}

func TestFailProbMatchesSampling(t *testing.T) {
	e := NewEngine(rng.New(5))
	for _, ber := range []float64{0.006, LimitBER, 0.012} {
		fails := 0
		const trials = 3000
		for i := 0; i < trials; i++ {
			if !e.Decode(ber, 4096).Correctable {
				fails++
			}
		}
		got := float64(fails) / trials
		want := FailProb(ber, 4096)
		if math.Abs(got-want) > 0.06 {
			t.Errorf("ber %v: sampled fail rate %.3f vs analytic %.3f", ber, got, want)
		}
	}
}

// Over random BERs and page sizes, Decode's verdicts are the
// per-codeword reference's, and a clear AR margin on the correctable side
// never comes with an uncorrectable page on the other.
func TestQuickDecodeRanges(t *testing.T) {
	l := newLockstep(6)
	f := func(berRaw uint16, pagesRaw uint8) bool {
		ber := float64(berRaw) / 65535 * 0.05
		pageBytes := (int(pagesRaw)%16 + 1) * 1024
		l.decode(t, ber, pageBytes)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A decode re-prepares the engine's own binomial in place, whatever kind
// the page before left in it.
func TestDecodeAllocs(t *testing.T) {
	e := NewEngine(rng.New(7))
	bers := []float64{0, 1e-4, 2e-3, LimitBER, 1}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		decodeSink = e.Decode(bers[i%len(bers)], 16*CodewordBytes)
		i++
	})
	if allocs != 0 {
		t.Errorf("Decode allocates %v objects per page, want 0", allocs)
	}
}

// BenchmarkDecode times one page decode — sixteen variates placed
// against the three cuts — at a fresh-device BER, at aged ones (a mean
// of 2 to 29 errors a codeword: inversion, whose walk the bound mostly
// skips) and past the switch to the normal approximation, below, on and
// above the correction limit.
func BenchmarkDecode(b *testing.B) {
	for _, bc := range []struct {
		name string
		ber  float64
	}{{"ber1e-4", 1e-4}, {"ber2e-4", 2e-4}, {"ber2e-3", 2e-3}, {"ber3.5e-3", 3.5e-3}, {"ber6e-3-normal", 6e-3}, {"ber8e-3-normal", 8e-3}, {"ber1.2e-2-normal", 1.2e-2}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngine(rng.New(1))
			var r Result
			for i := 0; i < b.N; i++ {
				r = e.Decode(bc.ber, 16*1024)
			}
			decodeSink = r
		})
	}
}

var decodeSink Result
