package core

import (
	"bytes"
	"testing"

	"cubeftl/internal/nand"
)

func TestAgeBucketFor(t *testing.T) {
	for _, tc := range []struct {
		months float64
		want   int
	}{
		{0, 0}, {-1, 0}, {0.5, 1}, {1, 1}, {2, 2}, {3, 2},
		{4, 3}, {6, 3}, {9, 4}, {12, 4}, {13, 5}, {120, 5},
	} {
		if got := AgeBucketFor(tc.months); got != tc.want {
			t.Errorf("AgeBucketFor(%v) = %d, want %d", tc.months, got, tc.want)
		}
	}
}

func TestRetrySetupFor(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mode       nand.RetryMode
		decode     bool
		disableORT bool
		table      bool
	}{
		{"", nand.RetrySerial, false, false, false},
		{"ort", nand.RetrySerial, false, false, false},
		{"baseline", nand.RetrySerial, false, true, false},
		{"ort-pr", nand.RetryPipelined, true, false, true},
		{"ort-pr-ar", nand.RetryPipelinedAR, true, false, true},
	} {
		rs, err := RetrySetupFor(tc.name)
		if err != nil {
			t.Fatalf("RetrySetupFor(%q): %v", tc.name, err)
		}
		if rs.Mode != tc.mode || (rs.DecodeNs > 0) != tc.decode ||
			rs.DisableORT != tc.disableORT || rs.RetryTable != tc.table {
			t.Errorf("RetrySetupFor(%q) = %+v, want mode %v decode>0=%v disableORT=%v table=%v",
				tc.name, rs, tc.mode, tc.decode, tc.disableORT, tc.table)
		}
	}
	if _, err := RetrySetupFor("bogus"); err == nil {
		t.Error("RetrySetupFor(bogus) did not error")
	}
}

// constBucket is a resolver that keys every block to bucket b.
func constBucket(b int) func(chip, block int) int {
	return func(int, int) int { return b }
}

// retryPolicy builds a cube policy with the retry table on and a small
// decay horizon for testing.
func retryPolicy(t *testing.T, seed uint64) *CubeFTL {
	t.Helper()
	_, dev := testDevice(seed)
	cfg := DefaultConfig()
	cfg.RetryDecayReads = 10
	f := NewCubeFTL(dev.Geometry(), cfg)
	f.ApplyRetrySetup(RetrySetup{RetryTable: true})
	return f
}

func TestRetryTableHitStaleAndBuckets(t *testing.T) {
	f := retryPolicy(t, 3)
	f.SetAgeBucketFn(constBucket(4))

	// Before any observation: retry miss, ORT miss, offset 0.
	if off := f.ReadStartOffset(0, 5, 2); off != 0 {
		t.Fatalf("cold lookup = %d, want 0", off)
	}
	f.ObserveRead(0, 5, 2, nand.ReadResult{OffsetUsed: 3}, nil)
	if off := f.ReadStartOffset(0, 5, 2); off != 3 {
		t.Fatalf("after observe: start offset = %d, want 3", off)
	}
	if f.CubeStats().RetryHits != 1 {
		t.Errorf("RetryHits = %d, want 1", f.CubeStats().RetryHits)
	}
	if f.CubeStats().RetryEntries != 1 {
		t.Errorf("RetryEntries = %d, want 1", f.CubeStats().RetryEntries)
	}

	// A different age bucket does not see the entry (the retry table is
	// age-keyed); the lookup falls through to the shared ORT prior.
	f.SetAgeBucketFn(constBucket(5))
	if off := f.ReadStartOffset(0, 5, 2); off != 3 {
		t.Fatalf("other bucket: ORT fallback = %d, want 3", off)
	}
	st := f.CubeStats()
	if st.RetryMisses == 0 || st.ORTHits == 0 {
		t.Errorf("other bucket lookup: RetryMisses=%d ORTHits=%d, want both > 0", st.RetryMisses, st.ORTHits)
	}
	f.SetAgeBucketFn(constBucket(4))

	// Age the entry past the decay horizon with unrelated observations:
	// the next lookup expires it and falls back to the ORT.
	for i := 0; i < 11; i++ {
		f.ObserveRead(0, 9, 1, nand.ReadResult{OffsetUsed: 1}, nil)
	}
	if off := f.ReadStartOffset(0, 5, 2); off != 3 {
		t.Fatalf("stale lookup should fall back to ORT value 3, got %d", off)
	}
	if st := f.CubeStats(); st.RetryStale != 1 {
		t.Errorf("RetryStale = %d, want 1", st.RetryStale)
	}

	// An uncorrectable read clears both tables for the key.
	f.ObserveRead(0, 9, 1, nand.ReadResult{}, nand.ErrUncorrectable)
	if off := f.ReadStartOffset(0, 9, 1); off != 0 {
		t.Errorf("after uncorrectable: start offset = %d, want 0", off)
	}
}

func TestRetryTableClearedOnErase(t *testing.T) {
	f := retryPolicy(t, 4)
	f.SetAgeBucketFn(constBucket(2))
	f.ObserveRead(0, 7, 3, nand.ReadResult{OffsetUsed: 2}, nil)
	f.SetAgeBucketFn(constBucket(5))
	f.ObserveRead(0, 7, 3, nand.ReadResult{OffsetUsed: 4}, nil)
	if f.CubeStats().RetryEntries != 2 {
		t.Fatalf("RetryEntries = %d, want 2", f.CubeStats().RetryEntries)
	}
	f.BlockErased(0, 7)
	if f.CubeStats().RetryEntries != 0 {
		t.Errorf("after erase: RetryEntries = %d, want 0 (all buckets cleared)", f.CubeStats().RetryEntries)
	}
	if off := f.ReadStartOffset(0, 7, 3); off != 0 {
		t.Errorf("after erase: start offset = %d, want 0", off)
	}
}

func TestRetryStateRoundTrip(t *testing.T) {
	f := retryPolicy(t, 5)
	f.SetAgeBucketFn(constBucket(4))
	f.ObserveRead(0, 5, 2, nand.ReadResult{OffsetUsed: 3}, nil)
	f.ObserveRead(1, 8, 6, nand.ReadResult{OffsetUsed: 5}, nil)
	blob := f.AppendState(nil)

	g := retryPolicy(t, 5)
	g.SetAgeBucketFn(constBucket(4))
	if err := g.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if g.CubeStats().RetryEntries != 2 {
		t.Fatalf("restored RetryEntries = %d, want 2", g.CubeStats().RetryEntries)
	}
	if off := g.ReadStartOffset(0, 5, 2); off != 3 {
		t.Errorf("restored start offset = %d, want 3", off)
	}
	// readSeq must survive too, or restored entries would decay against
	// a reset clock; byte-identical re-serialization proves it.
	if !bytes.Equal(blob, g.AppendState(nil)) {
		t.Error("restored state re-serializes differently (readSeq or entries lost)")
	}

	// Truncated input must error, not panic.
	if err := retryPolicy(t, 5).RestoreState(blob[:len(blob)-3]); err == nil {
		t.Error("truncated state restored without error")
	}
}

func TestBaselineDisablesORT(t *testing.T) {
	_, dev := testDevice(6)
	f := New(dev.Geometry())
	rs, err := RetrySetupFor("baseline")
	if err != nil {
		t.Fatal(err)
	}
	f.ApplyRetrySetup(rs)
	f.ObserveRead(0, 3, 1, nand.ReadResult{OffsetUsed: 4}, nil)
	if off := f.ReadStartOffset(0, 3, 1); off != 0 {
		t.Errorf("baseline start offset = %d, want 0 (caches off)", off)
	}
	st := f.CubeStats()
	if st.ORTHits != 0 || st.ORTMisses != 0 || st.RetryHits != 0 {
		t.Errorf("baseline counted cache traffic: %+v", st)
	}
}

// Regression for retry-table staleness under aging: when a fast-forward
// jumps a block across a retention-age bucket boundary, reads must not
// start from offsets cached for the block's previous age. The per-block
// bucket resolver moves the lookup key with the block, and
// InvalidateBlockRetry drops every remaining cached offset (retry table
// and per-layer ORT alike).
func TestRetryTableAgeJumpNoStaleOffsets(t *testing.T) {
	f := retryPolicy(t, 8)
	buckets := map[[2]int]int{}
	f.SetAgeBucketFn(func(chip, block int) int { return buckets[[2]int{chip, block}] })

	// Fresh device: block (0, 5) learns offset 2 in bucket 0; a control
	// block (1, 3) learns offset 4.
	f.ObserveRead(0, 5, 1, nand.ReadResult{OffsetUsed: 2}, nil)
	f.ObserveRead(1, 3, 2, nand.ReadResult{OffsetUsed: 4}, nil)
	if off := f.ReadStartOffset(0, 5, 1); off != 2 {
		t.Fatalf("pre-jump start offset = %d, want 2", off)
	}
	hits := f.CubeStats().RetryHits

	// The fast-forward jumps (0, 5) from bucket 0 to bucket 4. The old
	// retry entry is keyed to bucket 0 and must not serve the lookup.
	buckets[[2]int{0, 5}] = 4
	f.ReadStartOffset(0, 5, 1)
	if got := f.CubeStats().RetryHits; got != hits {
		t.Fatalf("stale retry entry served after age jump (RetryHits %d -> %d)", hits, got)
	}

	// The age-agnostic ORT prior still answers; the ager clears it too.
	f.InvalidateBlockRetry(0, 5)
	if off := f.ReadStartOffset(0, 5, 1); off != 0 {
		t.Fatalf("post-invalidation start offset = %d, want 0 (default voltages)", off)
	}
	// The control block is untouched.
	if off := f.ReadStartOffset(1, 3, 2); off != 4 {
		t.Fatalf("unrelated block lost its offset: %d, want 4", off)
	}

	// Re-learning in the new bucket keys under the new bucket: jumping
	// back must not resurrect it either.
	f.ObserveRead(0, 5, 1, nand.ReadResult{OffsetUsed: 5}, nil)
	if off := f.ReadStartOffset(0, 5, 1); off != 5 {
		t.Fatalf("re-learned offset = %d, want 5", off)
	}
	buckets[[2]int{0, 5}] = 0
	hits = f.CubeStats().RetryHits
	f.ReadStartOffset(0, 5, 1)
	if got := f.CubeStats().RetryHits; got != hits {
		t.Fatal("bucket-4 entry served a bucket-0 lookup")
	}
}

// Without a resolver every block keys to bucket 0, and resolver results
// outside [0, RetryAgeBuckets) are clamped.
func TestAgeBucketFnFallbackAndClamp(t *testing.T) {
	f := retryPolicy(t, 9)
	f.SetAgeBucketFn(constBucket(99))
	f.ObserveRead(0, 1, 0, nand.ReadResult{OffsetUsed: 1}, nil)
	if off := f.ReadStartOffset(0, 1, 0); off != 1 {
		t.Fatalf("clamped bucket lookup = %d, want 1", off)
	}
	f.SetAgeBucketFn(nil)
	hits := f.CubeStats().RetryHits
	f.ReadStartOffset(0, 1, 0) // bucket 0 != clamped 5
	if f.CubeStats().RetryHits != hits {
		t.Fatal("nil resolver did not fall back to bucket 0")
	}
	f.ObserveRead(0, 1, 0, nand.ReadResult{OffsetUsed: 2}, nil)
	f.SetAgeBucketFn(constBucket(-4))
	if off := f.ReadStartOffset(0, 1, 0); off != 2 || f.CubeStats().RetryHits != hits+1 {
		t.Fatalf("bucket -4 lookup = %d, want bucket 0's offset 2", off)
	}
}
