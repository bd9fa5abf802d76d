// Package ecc models the SSD controller's error-correction engine.
//
// The paper's mechanisms need only the engine's binary verdict — "page
// decoded" or "uncorrectable, retry with adjusted read reference
// voltages" (§2.3) — so the model is a correction-capability threshold:
// a 16 KB page is split into fixed-size codewords, each codeword
// tolerates up to CorrectableBits errors, and a page read fails if any
// codeword exceeds the budget. Only the page's worst codeword decides
// that — the largest of one binomial draw per codeword at the word
// line's effective BER, which makes the pass/fail boundary appropriately
// soft near the capability limit — and only where it falls against the
// limit and the AR margin is sampled, not its count.
package ecc

import (
	"math"

	"cubeftl/internal/rng"
)

// Codeword geometry: a BCH-class code protecting 1 KB of data with a
// 72-bit correction capability — a typical configuration for early-
// generation 3D TLC controllers.
const (
	CodewordBytes   = 1024
	CodewordBits    = CodewordBytes * 8
	CorrectableBits = 72
)

// LimitBER is the raw bit error rate at which the expected error count
// per codeword equals the correction capability. Reads at effective BER
// above this fail with probability ~0.5 and quickly approach 1.
const LimitBER = float64(CorrectableBits) / float64(CodewordBits)

// DefaultDecodeLatencyNs is the nominal latency of one hard-decision
// decode of a full page (~10 us for a BCH-class engine at this codeword
// geometry). The classic serial read flow hides it inside the quoted
// sense time, so the chip's decode-latency knob defaults to zero; the
// pipelined retry modes (PR/AR, Park et al. 2021) model it explicitly
// because overlapping it with the next sense is exactly their win.
const DefaultDecodeLatencyNs = 10_000

// ARMarginBits is the confidence margin for AR early sense termination:
// when a sense's sampled worst-codeword error count sits at least this
// many bits away from CorrectableBits — on either side — the outcome is
// already unambiguous at reduced sensing precision, and the chip ends
// the strobe early (vth.TReadARNs instead of a full tREAD).
const ARMarginBits = CorrectableBits / 4

// CodewordsPerPage returns how many ECC codewords cover a page.
func CodewordsPerPage(pageBytes int) int {
	n := pageBytes / CodewordBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Engine samples decode outcomes. It is not safe for concurrent use;
// give each simulated controller its own Engine.
type Engine struct {
	src *rng.Source
	// errs is the per-codeword error-count distribution of the page being
	// decoded, re-prepared in place for every page.
	errs rng.Binomial
}

// NewEngine returns an engine drawing from the given source.
func NewEngine(src *rng.Source) *Engine { return &Engine{src: src} }

// Result reports one decode attempt: the two verdicts a read-retry step
// consumes.
type Result struct {
	// Correctable: the worst codeword holds at most CorrectableBits errors.
	Correctable bool
	// ARClear: the worst codeword's error count is at least ARMarginBits
	// from CorrectableBits, on either side, so AR may end the sense early.
	ARClear bool
}

// verdictCuts are the worst-codeword counts at which a Result changes:
// the last count under the AR margin, the limit, and the last count
// inside the margin above it.
var verdictCuts = rng.NewCuts(CorrectableBits-ARMarginBits, CorrectableBits, CorrectableBits+ARMarginBits-1)

// Decode samples the decode outcome of reading a page of pageBytes at
// effective bit error rate ber. Every codeword of the page sees the same
// ber and only the worst one matters, so the page costs one binomial
// set-up and places the largest variate against the three cuts, mostly
// without working out its count; the source still advances by one
// variate per codeword (rng.Binomial.MaxRank).
func (e *Engine) Decode(ber float64, pageBytes int) Result {
	e.errs.Reset(CodewordBits, ber)
	r := e.errs.MaxRank(e.src, CodewordsPerPage(pageBytes), verdictCuts)
	return Result{Correctable: r <= 1, ARClear: r == 0 || r == 3}
}

// FailProb returns the analytic probability that a page read at
// effective BER ber is uncorrectable, using a normal approximation to
// the per-codeword binomial. Used by tests and by fast-path models that
// want an expected value instead of a sample.
func FailProb(ber float64, pageBytes int) float64 {
	return FailProbFor(ber, CodewordBits, CorrectableBits, CodewordsPerPage(pageBytes))
}

// FailProbFor is FailProb generalized to an arbitrary code geometry:
// codewords words of bits bits, each correcting up to t errors. It lets
// tests cross-validate this statistical model against the real BCH
// decoder in package bch at matching t/n ratios.
func FailProbFor(ber float64, bits, t, codewords int) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	mean := float64(bits) * ber
	sd := math.Sqrt(mean * (1 - ber))
	if sd == 0 {
		if mean > float64(t) {
			return 1
		}
		return 0
	}
	z := (float64(t) + 0.5 - mean) / sd
	pOK := phi(z)
	return 1 - math.Pow(pOK, float64(codewords))
}

// phi is the standard normal CDF.
func phi(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
