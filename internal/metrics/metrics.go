// Package metrics provides the measurement primitives used by the
// simulator and the experiment harness: latency histograms with
// percentile/CDF extraction, throughput (IOPS) accounting, and simple
// online summary statistics.
//
// All durations are simulated time expressed in nanoseconds (int64), the
// same unit the discrete-event engine uses.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Summary accumulates an online count, mean, min and max.
type Summary struct {
	n        int64
	mean     float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.mean += (v - s.mean) / float64(s.n)
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Merge folds o's observations into s, as if every sample o saw had
// been Added to s (the count-weighted combine of the two means).
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	na, nb := float64(s.n), float64(o.n)
	d := o.mean - s.mean
	s.mean += d * nb / (na + nb)
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Hist is a latency histogram over int64 nanosecond samples: an exact
// Summary (count, mean, min, max) beside fixed log-linear buckets — 64
// octaves of 32 buckets, so a bucket is at most 2^-5 of its lower edge
// wide. Add is O(1), memory is bounded whatever the run length, and
// Merge is bucket-wise addition, hence exact and order-independent.
// Percentiles are read off the buckets: the lower edge of the bucket
// holding the nearest rank, at most 3.1 % below the sample it stands
// for (and exact below 64 ns).
//
// A row of 32 buckets is allocated the first time a sample lands in its
// octave: a histogram of a few hundred samples spread over ten octaves
// (one tenant of a fleet) costs 3 KB instead of 16, and a warmed one
// allocates nothing.
type Hist struct {
	sum  Summary
	rows [numRows]*histRow
}

const (
	// log bucketing: 64 major buckets (powers of two) × 32 minor.
	minorBits = 5
	numRows   = 64
)

// histRow is one octave's bucket counts.
type histRow [1 << minorBits]int64

// NewHist returns an empty histogram. The argument is unused: it sized
// the exact-sample mode this type no longer has, and stays only because
// bench/ (a frozen path) calls NewHist(0).
func NewHist(_ int) *Hist { return &Hist{} }

// Add records one sample. Negative samples are clamped to zero.
func (h *Hist) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(float64(v))
	i := bucketOf(v)
	row := h.rows[i>>minorBits]
	if row == nil {
		row = new(histRow)
		h.rows[i>>minorBits] = row
	}
	row[i&(1<<minorBits-1)]++
}

// Reset empties the histogram, keeping its rows for reuse: a windowed
// user (one histogram per scrape or SLO interval) resets instead of
// building a fresh one.
func (h *Hist) Reset() {
	h.sum = Summary{}
	for _, row := range h.rows {
		if row != nil {
			*row = histRow{}
		}
	}
}

// bucketOf maps a non-negative value to a log bucket index.
func bucketOf(v int64) int {
	if v < (1 << minorBits) {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	minor := (v >> (uint(exp) - minorBits)) & ((1 << minorBits) - 1)
	return (exp-minorBits+1)<<minorBits + int(minor)
}

// bucketValue returns a representative value for a bucket index
// (the lower edge of the bucket).
func bucketValue(i int) int64 {
	if i < (1 << minorBits) {
		return int64(i)
	}
	major := i>>minorBits + minorBits - 1
	minor := i & ((1 << minorBits) - 1)
	return (1 << uint(major)) | int64(minor)<<(uint(major)-minorBits)
}

// Merge folds o's samples into h without modifying o, exactly as if
// every sample recorded in o had been Added to h. Used to build
// cross-tenant aggregate distributions from per-tenant histograms.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.sum.N() == 0 {
		return
	}
	for r, from := range o.rows {
		if from == nil {
			continue
		}
		to := h.rows[r]
		if to == nil {
			to = new(histRow)
			h.rows[r] = to
		}
		for i, c := range from {
			to[i] += c
		}
	}
	h.sum.Merge(o.sum)
}

// N returns the number of samples.
func (h *Hist) N() int64 { return h.sum.N() }

// Mean returns the mean sample.
func (h *Hist) Mean() float64 { return h.sum.Mean() }

// Max returns the largest sample.
func (h *Hist) Max() int64 { return int64(h.sum.Max()) }

// Min returns the smallest sample.
func (h *Hist) Min() int64 { return int64(h.sum.Min()) }

// Percentile returns the p-th percentile (0 < p <= 100) by the
// nearest-rank method at bucket resolution: the lower edge of the
// bucket containing the rank.
func (h *Hist) Percentile(p float64) int64 {
	n := h.sum.N()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		p = math.SmallestNonzeroFloat64
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n // float rounding near p=100 must not overshoot the count
	}
	var cum, last int64
	for r, row := range h.rows {
		if row == nil {
			continue
		}
		for i, c := range row {
			if c == 0 {
				continue
			}
			cum += c
			last = bucketValue(r<<minorBits | i)
			if cum >= rank {
				return last
			}
		}
	}
	// Unreachable once cum spans every sample, but never answer with
	// sum.Max(): it can exceed the last occupied bucket's edge, and the
	// histogram must not report finer (or larger) values than its bucket
	// resolution holds.
	return last
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value int64   // sample value (ns)
	Frac  float64 // cumulative fraction in (0, 1]
}

// CDF returns the cumulative distribution evaluated at the given
// percentiles (e.g. 1..99). Useful for reproducing latency-CDF figures.
func (h *Hist) CDF(percentiles []float64) []CDFPoint {
	out := make([]CDFPoint, 0, len(percentiles))
	for _, p := range percentiles {
		out = append(out, CDFPoint{Value: h.Percentile(p), Frac: p / 100})
	}
	return out
}

// StandardPercentiles is the grid used by the latency-CDF experiments.
var StandardPercentiles = []float64{
	1, 5, 10, 20, 30, 40, 50, 60, 70, 75, 80, 85, 90, 95, 99, 99.9,
}

// String summarizes the histogram for logs.
func (h *Hist) String() string {
	if h.N() == 0 {
		return "hist{empty}"
	}
	return fmt.Sprintf("hist{n=%d mean=%.1fus p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus}",
		h.N(), h.Mean()/1e3,
		float64(h.Percentile(50))/1e3, float64(h.Percentile(90))/1e3,
		float64(h.Percentile(99))/1e3, float64(h.Max())/1e3)
}

// IOPS converts an operation count over a simulated duration (ns) into
// I/O operations per second. Returns 0 for non-positive durations.
func IOPS(ops int64, elapsedNs int64) float64 {
	if elapsedNs <= 0 {
		return 0
	}
	return float64(ops) / (float64(elapsedNs) / 1e9)
}
