package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cubeftl/internal/rng"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 {
		t.Fatal("zero-value summary not empty")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryMerge(t *testing.T) {
	// Merging two summaries must equal one summary over both sample sets.
	var a, b, both Summary
	src := rng.New(7)
	for i := 0; i < 1000; i++ {
		v := src.Exponential(50)
		a.Add(v)
		both.Add(v)
	}
	for i := 0; i < 333; i++ {
		v := src.Float64() * 10
		b.Add(v)
		both.Add(v)
	}
	a.Merge(b)
	if a.N() != both.N() {
		t.Fatalf("N = %d, want %d", a.N(), both.N())
	}
	if math.Abs(a.Mean()-both.Mean()) > 1e-9*math.Abs(both.Mean()) {
		t.Errorf("Mean = %v, want %v", a.Mean(), both.Mean())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Errorf("Min/Max = %v/%v, want %v/%v", a.Min(), a.Max(), both.Min(), both.Max())
	}

	// Merging into an empty summary copies; merging an empty is a no-op.
	var empty Summary
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Error("merge into empty summary lost state")
	}
	before := a
	a.Merge(Summary{})
	if a != before {
		t.Error("merging an empty summary changed state")
	}
}

func TestHistMergeEmpty(t *testing.T) {
	h := NewHist(0)
	h.Merge(nil)
	h.Merge(NewHist(0))
	if h.N() != 0 {
		t.Fatalf("N = %d after empty merges", h.N())
	}
	h.Add(5)
	empty := NewHist(0)
	empty.Merge(h)
	if empty.N() != 1 || empty.Percentile(50) != 5 {
		t.Errorf("merge into empty hist: n=%d p50=%d", empty.N(), empty.Percentile(50))
	}
}

func TestHistMergeDisjointExact(t *testing.T) {
	a, b := NewHist(0), NewHist(0)
	for i := int64(1); i <= 50; i++ {
		a.Add(i)
	}
	for i := int64(51); i <= 100; i++ {
		b.Add(i)
	}
	a.Merge(b)
	if a.N() != 100 {
		t.Fatalf("N = %d", a.N())
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, edge(99)}} {
		if got := a.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %d, want %d", c.p, got, c.want)
		}
	}
	// b must be untouched.
	if b.N() != 50 || b.Percentile(100) != 100 || b.Min() != 51 || b.Max() != 100 {
		t.Error("merge modified its argument")
	}
}

func TestHistMergeOverlapping(t *testing.T) {
	// Overlapping value ranges, merged in both orders, against a single
	// histogram holding the union.
	mk := func() (*Hist, *Hist, *Hist) {
		a, b, both := NewHist(0), NewHist(0), NewHist(0)
		src := rng.New(99)
		for i := 0; i < 2000; i++ {
			v := int64(src.Intn(1000))
			a.Add(v)
			both.Add(v)
		}
		for i := 0; i < 3000; i++ {
			v := int64(src.Intn(1500))
			b.Add(v)
			both.Add(v)
		}
		return a, b, both
	}
	a, b, both := mk()
	a.Merge(b)
	for _, p := range StandardPercentiles {
		if a.Percentile(p) != both.Percentile(p) {
			t.Errorf("P%v = %d, want %d", p, a.Percentile(p), both.Percentile(p))
		}
	}
	if math.Abs(a.Mean()-both.Mean()) > 1e-9*both.Mean() {
		t.Errorf("merged mean %v differs from union %v", a.Mean(), both.Mean())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Error("merged min/max differ from union")
	}
}

func TestHistMergeBucketedCombinations(t *testing.T) {
	// Whatever the sizes of the two sides, counts add up and the merged
	// percentiles are the bucket edges of the exact union's.
	fill := func(h *Hist, all *[]int64, seed uint64, n int) {
		src := rng.New(seed)
		for i := 0; i < n; i++ {
			v := int64(src.Exponential(80000))
			h.Add(v)
			*all = append(*all, v)
		}
	}
	for _, tc := range []struct {
		name   string
		nA, nB int
	}{
		{"large+small", 2000, 64},
		{"small+large", 64, 2000},
		{"small+small", 64, 64},
		{"large+large", 3000, 2000},
	} {
		a, b := NewHist(0), NewHist(0)
		var union []int64
		fill(a, &union, 1, tc.nA)
		fill(b, &union, 2, tc.nB)
		a.Merge(b)
		if a.N() != int64(tc.nA+tc.nB) {
			t.Fatalf("%s: N = %d", tc.name, a.N())
		}
		slices.Sort(union)
		for _, p := range []float64{50, 90, 99} {
			if got, want := a.Percentile(p), edge(nearestRank(union, p)); got != want {
				t.Errorf("%s: P%v = %v, want %v", tc.name, p, got, want)
			}
		}
	}
}

func TestHistExactPercentiles(t *testing.T) {
	h := NewHist(0)
	for i := int64(1); i <= 100; i++ {
		h.Add(i)
	}
	cases := []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, edge(99)}, {100, 100}, {1, 1}}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %d, want %d", c.p, got, c.want)
		}
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestHistEmpty(t *testing.T) {
	h := NewHist(0)
	if h.Percentile(50) != 0 || h.N() != 0 {
		t.Error("empty hist misbehaves")
	}
	if h.String() != "hist{empty}" {
		t.Errorf("String = %q", h.String())
	}
}

func TestHistNegativeClamped(t *testing.T) {
	h := NewHist(0)
	h.Add(-5)
	if h.Min() != 0 {
		t.Errorf("negative sample not clamped: min=%d", h.Min())
	}
}

func TestHistBucketedAccuracy(t *testing.T) {
	// Percentiles stay within one log-bucket (~3%) of the exact ones, and
	// never above them.
	var exact []int64
	h := NewHist(0)
	src := rng.New(42)
	for i := 0; i < 50000; i++ {
		v := int64(src.Exponential(80000)) // ~80us mean latencies
		exact = append(exact, v)
		h.Add(v)
	}
	slices.Sort(exact)
	for _, p := range []float64{50, 90, 99} {
		e := float64(nearestRank(exact, p))
		b := float64(h.Percentile(p))
		if b > e || (e-b)/e > 1.0/(1<<minorBits) {
			t.Errorf("P%v: exact %v bucketed %v", p, e, b)
		}
	}
	if h.N() != int64(len(exact)) {
		t.Errorf("N mismatch: %d vs %d", h.N(), len(exact))
	}
}

func TestBucketRoundTrip(t *testing.T) {
	// bucketValue(bucketOf(v)) must be <= v and within ~3.2% of v.
	f := func(raw uint64) bool {
		v := int64(raw >> 1) // non-negative
		i := bucketOf(v)
		lo := bucketValue(i)
		if lo > v {
			return false
		}
		if v >= 64 && float64(v-lo)/float64(v) > 1.0/(1<<minorBits)+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestBucketMonotonic(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotonic at %d", v)
		}
		prev = b
	}
}

func TestCDF(t *testing.T) {
	h := NewHist(0)
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	pts := h.CDF([]float64{10, 50, 90})
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Value != 100 || pts[1].Value != edge(500) || pts[2].Value != edge(900) {
		t.Errorf("CDF values = %+v", pts)
	}
	if pts[1].Frac != 0.5 {
		t.Errorf("Frac = %v", pts[1].Frac)
	}
}

func TestIOPS(t *testing.T) {
	if got := IOPS(1000, 1e9); got != 1000 {
		t.Errorf("IOPS = %v", got)
	}
	if got := IOPS(500, 5e8); got != 1000 {
		t.Errorf("IOPS = %v", got)
	}
	if got := IOPS(10, 0); got != 0 {
		t.Errorf("IOPS with zero duration = %v", got)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		h := NewHist(0)
		for i := 0; i < 500; i++ {
			h.Add(int64(src.Intn(1000000)))
		}
		prev := int64(-1)
		for _, p := range StandardPercentiles {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBucketedPercentileClampedToLastOccupiedBucket(t *testing.T) {
	// Regression: the rank-exhaustion fallback used to answer with
	// sum.Max(), which can sit far outside the last occupied bucket's
	// lower edge (the histogram's actual resolution). Desync the summary
	// count from the bucket mass the way that bug surfaced and check the
	// answer is clamped to the last occupied edge.
	h := NewHist(0)
	for _, v := range []int64{100, 2_000, 1_234_567, 1_234_567} {
		h.Add(v)
	}
	h.sum.Add(5_000_000) // summary-only mass: rank can exceed bucket mass
	if got := h.Percentile(100); got != edge(1_234_567) {
		t.Fatalf("P100 = %d, want last occupied bucket edge %d", got, edge(1_234_567))
	}
}

func TestMergePercentileStaysOnBucketEdges(t *testing.T) {
	// Every percentile of a merge (P100 included) lands on the lower edge
	// of an occupied bucket, never above it.
	vals := []int64{3, 70, 900, 44_000, 1_234_567}
	a, b := NewHist(0), NewHist(0)
	for _, v := range vals {
		a.Add(v)
		b.Add(v)
	}
	a.Merge(b)
	if a.N() != int64(2*len(vals)) {
		t.Fatalf("N = %d", a.N())
	}
	prev := int64(-1)
	for p := float64(1); p <= 100; p++ {
		v := a.Percentile(p)
		if v < prev {
			t.Fatalf("P%v = %d < P%v = %d (not monotone)", p, v, p-1, prev)
		}
		if !slices.ContainsFunc(vals, func(x int64) bool { return edge(x) == v }) {
			t.Fatalf("P%v = %d is not the edge of an occupied bucket", p, v)
		}
		prev = v
	}
	if got := a.Percentile(100); got != edge(1_234_567) {
		t.Fatalf("P100 = %d, want %d", got, edge(1_234_567))
	}
}

// The oracle the exact-sample mode of Hist used to be: a sorted slice
// read by nearest rank.
func nearestRank(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// edge is the value a histogram reports for a sample: the lower edge of
// its bucket.
func edge(v int64) int64 { return bucketValue(bucketOf(v)) }

// sameHist reports whether two histograms hold the same bucket counts
// and the same exact count, min and max (an untouched row equals a
// zeroed one). The running mean is compared to rounding: a merge and a
// sequence of Adds reach it by different float paths.
func sameHist(a, b *Hist) bool {
	for r := range a.rows {
		var ra, rb histRow
		if a.rows[r] != nil {
			ra = *a.rows[r]
		}
		if b.rows[r] != nil {
			rb = *b.rows[r]
		}
		if ra != rb {
			return false
		}
	}
	return a.N() == b.N() && a.Min() == b.Min() && a.Max() == b.Max() &&
		math.Abs(a.Mean()-b.Mean()) <= 1e-9*math.Abs(b.Mean())
}

// randomSamples draws n latencies spread over many octaves.
func randomSamples(src *rng.Source, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(src.Exponential(1)*float64(int64(1)<<uint(src.Intn(34)))) + int64(src.Intn(3))
	}
	return out
}

func TestHistMatchesSortedSlice(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		samples := randomSamples(src, 1+src.Intn(3000))
		h := NewHist(0)
		for _, v := range samples {
			h.Add(v)
		}
		slices.Sort(samples)
		ps := append([]float64{0.001, 0.1, 99.99, 100}, StandardPercentiles...)
		for _, p := range ps {
			if got, want := h.Percentile(p), edge(nearestRank(samples, p)); got != want {
				t.Fatalf("seed %d, %d samples: P%v = %d, want %d", seed, len(samples), p, got, want)
			}
		}
		if h.Min() != samples[0] || h.Max() != samples[len(samples)-1] {
			t.Fatalf("seed %d: Min/Max = %d/%d, want %d/%d", seed, h.Min(), h.Max(), samples[0], samples[len(samples)-1])
		}
	}
}

func TestHistMergeIsAddingEverySample(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		as, bs := randomSamples(src, src.Intn(800)), randomSamples(src, src.Intn(800))
		a, b, ab, ba, all := NewHist(0), NewHist(0), NewHist(0), NewHist(0), NewHist(0)
		for _, v := range as {
			a.Add(v)
			all.Add(v)
		}
		for _, v := range bs {
			b.Add(v)
			all.Add(v)
		}
		ab.Merge(a)
		ab.Merge(b)
		ba.Merge(b)
		ba.Merge(a)
		if !sameHist(ab, all) {
			t.Fatalf("seed %d: a+b differs from adding every sample", seed)
		}
		if !sameHist(ab, ba) {
			t.Fatalf("seed %d: merge is not commutative", seed)
		}
	}
}

func TestHistResetEqualsNew(t *testing.T) {
	src := rng.New(5)
	h := NewHist(0)
	for _, v := range randomSamples(src, 500) {
		h.Add(v)
	}
	h.Reset()
	if !sameHist(h, NewHist(0)) || h.Percentile(99) != 0 || h.String() != "hist{empty}" {
		t.Fatal("a reset histogram differs from a new one")
	}
	second := randomSamples(src, 500)
	fresh := NewHist(0)
	for _, v := range second {
		h.Add(v)
		fresh.Add(v)
	}
	if !sameHist(h, fresh) {
		t.Fatal("a reset histogram does not fill like a new one")
	}
}

func TestHistWarmAddAllocs(t *testing.T) {
	src := rng.New(9)
	samples := randomSamples(src, 2000)
	h := NewHist(0)
	for _, v := range samples {
		h.Add(v)
	}
	h.Reset() // keeps the rows
	i := 0
	if n := testing.AllocsPerRun(len(samples), func() { h.Add(samples[i%len(samples)]); i++ }); n != 0 {
		t.Errorf("Add to a warmed histogram: %.2f allocations, want 0", n)
	}
}

// Walk reads a ledger's tags once and hands back closures over the
// fields' addresses: a row follows the live field, including across a
// whole-struct assignment (how ResetStats zeroes), with no reflection
// left on the read path.
func TestWalkReadsLiveFieldsThroughTheirAddresses(t *testing.T) {
	type ledger struct {
		Made    int64   `metric:"layer/made_total counter widgets made"`
		Depth   int     `metric:"layer/depth gauge widgets waiting"`
		Ratio   float64 `metric:"layer/ratio gauge made over asked, with spaces in the help"`
		Private int64   `metric:"-"`
		Name    string
		hidden  int64
	}
	l := &ledger{Made: 3, Depth: 2, Ratio: 0.5, Private: 9, hidden: 1}
	rows := Walk(l)
	if len(rows) != 4 || rows[0].Name != "layer/made_total" || rows[0].Kind != "counter" || rows[0].Help != "widgets made" ||
		rows[2].Help != "made over asked, with spaces in the help" || rows[3].Name != "" || rows[3].Field != "Private" {
		t.Fatalf("rows = %+v", rows)
	}
	l.Made++
	*l = ledger{Made: l.Made + 1, Depth: 7}
	if rows[0].Get() != 5 || rows[1].Get() != 7 || rows[2].Get() != 0 || rows[3].Get() != 0 {
		t.Errorf("rows read %v %v %v %v, want the live 5 7 0 0", rows[0].Get(), rows[1].Get(), rows[2].Get(), rows[3].Get())
	}
	if n := testing.AllocsPerRun(100, func() { _ = rows[0].Get() + rows[2].Get() }); n != 0 {
		t.Errorf("reading a row allocates %.1f times", n)
	}
	for name, bad := range map[string]any{
		"untagged": &struct{ N int64 }{},
		"kind": &struct {
			N int64 `metric:"a/b histogram help"`
		}{},
		"no help": &struct {
			N int64 `metric:"a/b gauge"`
		}{},
		"type": &struct {
			N int32 `metric:"a/b gauge help"`
		}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Walk accepted a malformed declaration", name)
				}
			}()
			Walk(bad)
		}()
	}
}
