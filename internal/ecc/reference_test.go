package ecc

import (
	"math"
	"testing"

	"cubeftl/internal/rng"
)

// decodeReference is Engine.Decode as it stood before the page's verdict
// was sampled from its largest variate: one binomial draw — one
// inversion — per codeword, the largest kept, and the verdicts read off
// its count. Decode must return what it returns and leave the source
// where it leaves it.
func decodeReference(src *rng.Source, ber float64, pageBytes int) Result {
	var errs rng.Binomial
	errs.Reset(CodewordBits, ber)
	worst := 0
	for i := 0; i < CodewordsPerPage(pageBytes); i++ {
		worst = max(worst, errs.Draw(src))
	}
	d := worst - CorrectableBits
	return Result{Correctable: d <= 0, ARClear: d <= -ARMarginBits || d >= ARMarginBits}
}

// lockstep drives an Engine and the reference from equal seeds. The
// engine lives across calls, so its binomial is re-prepared over whatever
// the previous page left in it.
type lockstep struct {
	eng      *Engine
	src, ref *rng.Source
}

func newLockstep(seed uint64) *lockstep {
	src := rng.New(seed)
	return &lockstep{eng: NewEngine(src), src: src, ref: rng.New(seed)}
}

func (l *lockstep) decode(t testing.TB, ber float64, pageBytes int) {
	t.Helper()
	got, want := l.eng.Decode(ber, pageBytes), decodeReference(l.ref, ber, pageBytes)
	if got != want {
		t.Fatalf("ber=%g (%#x) page=%d: Decode %+v, reference %+v", ber, math.Float64bits(ber), pageBytes, got, want)
	}
	// The sources agree in full (a cached Gaussian included), and still do
	// after one more value each — which also varies where in a Gaussian
	// pair the next page starts.
	if *l.src != *l.ref || l.src.Uint64() != l.ref.Uint64() {
		t.Fatalf("ber=%g (%#x) page=%d: source state diverged from the reference", ber, math.Float64bits(ber), pageBytes)
	}
}

// oracleBERs covers every kind of rng.Binomial at CodewordBits trials —
// always 0, inversion (a walk of a term or two, one of ~16, one that all
// but fills the memo), both sides of the n·p = 32 switch to the normal
// approximation, a mean on each of the three cuts (the AR margin under
// the limit, the limit, the AR margin above it), hopeless, always n —
// and the values no model should produce but a caller could pass.
var oracleBERs = []float64{
	0, 1e-6, 2e-4, 2e-3,
	math.Nextafter(32.0/CodewordBits, 0), 32.0 / CodewordBits, math.Nextafter(32.0/CodewordBits, 1),
	LimitBER, 0.02, 1,
	-1e-3, 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
	54.5 / CodewordBits, 72.5 / CodewordBits, 89.5 / CodewordBits,
}

func TestDecodeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		l := newLockstep(seed)
		for round := 0; round < 4; round++ {
			for kb := 1; kb <= 16; kb++ {
				for _, ber := range oracleBERs {
					l.decode(t, ber, kb*1024)
				}
			}
		}
	}
	// Sub-codeword and odd page sizes round as CodewordsPerPage says.
	l := newLockstep(99)
	for _, pageBytes := range []int{-5, 0, 1, 512, 1023, 1025, 16383, 16384, 100 * 1024} {
		for _, ber := range oracleBERs {
			l.decode(t, ber, pageBytes)
		}
	}
}

// FuzzDecodeMatchesReference runs the same oracle — both verdicts and the
// whole source state — on any bit pattern as a BER: subnormals, NaNs with
// payloads and infinities must neither panic nor disagree. The first page
// leaves an inversion set up in the engine so that the fuzzed one resets
// over it; the repeat decodes from a warm set-up.
func FuzzDecodeMatchesReference(f *testing.F) {
	for i, ber := range oracleBERs {
		for _, codewords := range []uint8{0, 1, 4, 16, 255} {
			f.Add(uint64(i)+1, math.Float64bits(ber), codewords)
		}
	}
	f.Fuzz(func(t *testing.T, seed, berBits uint64, codewords uint8) {
		ber := math.Float64frombits(berBits)
		pageBytes := int(codewords) * CodewordBytes
		l := newLockstep(seed)
		l.decode(t, 2e-3, 16*CodewordBytes)
		l.decode(t, ber, pageBytes)
		l.decode(t, ber, pageBytes)
	})
}
