package nand

import (
	"errors"
	"testing"

	"cubeftl/internal/ecc"
	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

// twinChips builds n chips with identical configuration and seed, so
// their randomness streams (ECC sampling, jitter, faults) are
// bit-identical and only per-read parameters differ between them.
func twinChips(t *testing.T, n int) []*Chip {
	t.Helper()
	out := make([]*Chip, n)
	for i := range out {
		out[i] = New(DefaultConfig())
	}
	return out
}

// TestFaultPathLatencyMatchesCleanFirstAttempt is the regression test
// for the transient-read-fault accounting fix: a faulted read wastes
// exactly one first-attempt sense, so its latency must equal the clean
// path's first-attempt latency — including the TParamSetNs charge when
// the (clamped) start offset is non-zero.
func TestFaultPathLatencyMatchesCleanFirstAttempt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start int
	}{
		{"default-start", 0},
		{"offset-start", 2},
		{"clamped-to-zero", -5},
		{"clamped-to-max", 99},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chips := twinChips(t, 2)
			faulty, clean := chips[0], chips[1]
			faulty.SetFaults(FaultConfig{ReadFaultRate: 1})
			a := Address{Block: 1, Layer: 5, WL: 0, Page: 0}
			for _, c := range chips {
				mustProgram(t, c, a, ProgramParams{})
			}

			fres, err := faulty.ReadPage(a, ReadParams{StartOffset: tc.start})
			if !errors.Is(err, ErrReadFault) {
				t.Fatalf("armed chip: err = %v, want ErrReadFault", err)
			}

			want := int64(vth.TWriteSetupNs) + vth.TReadNs
			if clampOffset(tc.start) != 0 {
				want += vth.TParamSetNs
			}
			if fres.LatencyNs != want {
				t.Errorf("fault-path latency = %d ns, want %d (one first-attempt sense)", fres.LatencyNs, want)
			}

			// Where the clean read succeeds on its first attempt, the
			// equality must also hold end to end against the real path.
			cres, err := clean.ReadPage(a, ReadParams{StartOffset: tc.start})
			if err == nil && cres.Retries == 0 && fres.LatencyNs != cres.LatencyNs {
				t.Errorf("fault-path latency = %d ns, clean first-attempt = %d ns; want equal",
					fres.LatencyNs, cres.LatencyNs)
			}
		})
	}
}

// TestStartOffsetClampCharging verifies the up-front clamp: an
// out-of-range start offset behaves — in latency, offset choice, and
// retry count — exactly like the in-range value it clamps to, on a
// same-seed twin chip. In particular a negative start clamps to 0 and
// pays no phantom TParamSetNs.
func TestStartOffsetClampCharging(t *testing.T) {
	for _, tc := range []struct {
		name         string
		raw, clamped int
	}{
		{"negative-to-zero", -5, 0},
		{"above-max-to-max", 99, vth.MaxReadOffsetLevel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chips := twinChips(t, 2)
			a := Address{Block: 2, Layer: 9, WL: 1, Page: 1}
			for _, c := range chips {
				mustProgram(t, c, a, ProgramParams{})
			}
			r0, err0 := chips[0].ReadPage(a, ReadParams{StartOffset: tc.raw})
			r1, err1 := chips[1].ReadPage(a, ReadParams{StartOffset: tc.clamped})
			if (err0 == nil) != (err1 == nil) {
				t.Fatalf("errors diverge: raw %v vs clamped %v", err0, err1)
			}
			if r0.LatencyNs != r1.LatencyNs || r0.OffsetUsed != r1.OffsetUsed || r0.Retries != r1.Retries {
				t.Errorf("raw start %d: (lat %d, off %d, retries %d); clamped start %d: (lat %d, off %d, retries %d); want identical",
					tc.raw, r0.LatencyNs, r0.OffsetUsed, r0.Retries,
					tc.clamped, r1.LatencyNs, r1.OffsetUsed, r1.Retries)
			}
		})
	}
}

// TestLadderIterMatchesReference pins the allocation-free iterator to
// the original slice-building ladder semantics.
func TestLadderIterMatchesReference(t *testing.T) {
	ref := func(start, n int) []int {
		if start < 0 {
			start = 0
		}
		if start > vth.MaxReadOffsetLevel {
			start = vth.MaxReadOffsetLevel
		}
		seq := []int{start}
		for d := 1; len(seq) < n && d <= vth.MaxReadOffsetLevel; d++ {
			if up := start + d; up <= vth.MaxReadOffsetLevel && len(seq) < n {
				seq = append(seq, up)
			}
			if down := start - d; down >= 0 && len(seq) < n {
				seq = append(seq, down)
			}
		}
		return seq
	}
	for start := -3; start <= vth.MaxReadOffsetLevel+3; start++ {
		for n := 1; n <= 2*vth.MaxReadOffsetLevel+2; n++ {
			want := ref(start, n)
			got := ladder(start, n)
			if len(got) != len(want) {
				t.Fatalf("ladder(%d,%d) = %v, want %v", start, n, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ladder(%d,%d) = %v, want %v", start, n, got, want)
				}
			}
		}
	}
}

// TestReadPageNoAllocs verifies the hot path allocates nothing when the
// chip is not storing payload data.
func TestReadPageNoAllocs(t *testing.T) {
	c := newChip(t)
	a := Address{Block: 0, Layer: 3, WL: 2, Page: 0}
	mustProgram(t, c, a, ProgramParams{})
	for _, mode := range []RetryMode{RetrySerial, RetryPipelined, RetryPipelinedAR} {
		p := ReadParams{StartOffset: 1, Mode: mode}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := c.ReadPage(a, p); err != nil {
				t.Fatalf("ReadPage: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("mode %d: ReadPage allocates %.1f objects/op, want 0", mode, allocs)
		}
	}
}

// BenchmarkReadPage tracks the hot path's cost and allocation count
// (go test -bench ReadPage -benchmem ./internal/nand).
func BenchmarkReadPage(b *testing.B) {
	c := New(DefaultConfig())
	a := Address{Block: 0, Layer: 3, WL: 2, Page: 0}
	if _, err := c.ProgramWL(a, nil, ProgramParams{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ReadPage(a, ReadParams{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRetryStatInvariants is the property-style reconciliation test: at
// several seeds, under mixed transient faults, jitter, aging, random
// start offsets and retry budgets, every issued sense is counted
// exactly once across stats.Reads/ReadRetries, every call is classified
// (clean, fault, or uncorrectable), and per-block read counters sum to
// the calls issued.
func TestRetryStatInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := DefaultConfig()
		cfg.Process.Seed = seed
		c := New(cfg)
		c.SetFaults(FaultConfig{ReadFaultRate: 0.2})
		c.SetReadJitterProb(0.5)
		c.SetFixedRetention(6)

		var addrs []Address
		for b := 0; b < 4; b++ {
			c.SetPECycles(b, 2000)
			for l := 0; l < 6; l++ {
				a := Address{Block: b, Layer: l * 7, WL: 0}
				mustProgram(t, c, a, ProgramParams{})
				addrs = append(addrs, a)
			}
		}

		src := rng.New(seed).Derive("retry-stat-test")
		var calls, senses, faults, failures, retries int64
		perBlock := make(map[int]int64)
		for i := 0; i < 500; i++ {
			a := addrs[src.Intn(len(addrs))]
			a.Page = src.Intn(vth.PagesPerWL)
			p := ReadParams{
				StartOffset: src.Intn(vth.MaxReadOffsetLevel+3) - 1, // includes out-of-range
				MaxRetries:  src.Intn(4),
				Mode:        RetryMode(src.Intn(3)),
			}
			res, err := c.ReadPage(a, p)
			calls++
			perBlock[a.Block]++
			senses += int64(1 + res.Retries)
			retries += int64(res.Retries)
			switch {
			case errors.Is(err, ErrReadFault):
				faults++
			case errors.Is(err, ErrUncorrectable):
				failures++
			case err != nil:
				t.Fatalf("seed %d: unexpected error %v", seed, err)
			}
		}

		st := c.Stats()
		if st.Reads != calls {
			t.Errorf("seed %d: stats.Reads = %d, want %d (one per issued read)", seed, st.Reads, calls)
		}
		if st.ReadRetries != retries {
			t.Errorf("seed %d: stats.ReadRetries = %d, want %d", seed, st.ReadRetries, retries)
		}
		if st.Reads+st.ReadRetries != senses {
			t.Errorf("seed %d: Reads+ReadRetries = %d, want %d senses (each counted exactly once)",
				seed, st.Reads+st.ReadRetries, senses)
		}
		if st.ReadFaults != faults {
			t.Errorf("seed %d: stats.ReadFaults = %d, want %d", seed, st.ReadFaults, faults)
		}
		if st.ReadFailures != failures {
			t.Errorf("seed %d: stats.ReadFailures = %d, want %d", seed, st.ReadFailures, failures)
		}
		var blockSum int64
		for b := 0; b < c.Blocks(); b++ {
			blockSum += c.BlockReads(b)
		}
		if blockSum != calls {
			t.Errorf("seed %d: sum of per-block reads = %d, want %d", seed, blockSum, calls)
		}
		if faults == 0 || retries == 0 {
			t.Errorf("seed %d: degenerate mix (faults=%d retries=%d); property not exercised", seed, faults, retries)
		}
	}
}

// TestRetryModesSameDecisionsDifferentLatency verifies the RNG-parity
// contract: at the same seed the three scheduling modes make identical
// retry decisions (attempt counts, chosen offsets, outcomes) and differ
// only in latency arithmetic — serial with zero decode reproduces the
// historical formula exactly, pipelined costs exactly one trailing
// decode more (decode < sense hides every other decode), and AR is
// never slower than plain pipelining.
func TestRetryModesSameDecisionsDifferentLatency(t *testing.T) {
	const decode = ecc.DefaultDecodeLatencyNs
	chips := twinChips(t, 3)
	serial, pr, ar := chips[0], chips[1], chips[2]
	pr.cfg.DecodeLatencyNs = decode
	ar.cfg.DecodeLatencyNs = decode
	for _, c := range chips {
		for b := 0; b < 4; b++ {
			c.SetPECycles(b, 2000)
		}
		c.SetFixedRetention(12)
		c.SetReadJitterProb(0.5)
	}
	var addrs []Address
	for b := 0; b < 4; b++ {
		for l := 0; l < 8; l++ {
			a := Address{Block: b, Layer: l * 5, WL: 1}
			for _, c := range chips {
				mustProgram(t, c, a, ProgramParams{})
			}
			addrs = append(addrs, a)
		}
	}

	src := rng.New(77).Derive("retry-mode-test")
	arWins := 0
	for i := 0; i < 300; i++ {
		a := addrs[src.Intn(len(addrs))]
		start := src.Intn(vth.MaxReadOffsetLevel + 1)
		rs, errS := serial.ReadPage(a, ReadParams{StartOffset: start, Mode: RetrySerial})
		rp, errP := pr.ReadPage(a, ReadParams{StartOffset: start, Mode: RetryPipelined})
		ra, errA := ar.ReadPage(a, ReadParams{StartOffset: start, Mode: RetryPipelinedAR})

		if (errS == nil) != (errP == nil) || (errS == nil) != (errA == nil) ||
			rs.Retries != rp.Retries || rs.Retries != ra.Retries ||
			rs.OffsetUsed != rp.OffsetUsed || rs.OffsetUsed != ra.OffsetUsed {
			t.Fatalf("read %d: modes diverged in decisions: serial(%d,%d,%v) pr(%d,%d,%v) ar(%d,%d,%v)",
				i, rs.Retries, rs.OffsetUsed, errS, rp.Retries, rp.OffsetUsed, errP, ra.Retries, ra.OffsetUsed, errA)
		}

		setup := int64(vth.TWriteSetupNs)
		if start != 0 {
			setup += vth.TParamSetNs
		}
		attempts := int64(rs.Retries + 1)
		if want := setup + attempts*vth.TReadNs; rs.LatencyNs != want {
			t.Fatalf("read %d: serial latency = %d, want %d (historical formula)", i, rs.LatencyNs, want)
		}
		if want := int64(rs.Retries) * vth.TReadNs; rs.RetryNs != want {
			t.Fatalf("read %d: serial RetryNs = %d, want %d", i, rs.RetryNs, want)
		}
		if want := rs.LatencyNs + decode; rp.LatencyNs != want {
			t.Fatalf("read %d: pipelined latency = %d, want %d (serial + one trailing decode)", i, rp.LatencyNs, want)
		}
		if ra.LatencyNs > rp.LatencyNs {
			t.Fatalf("read %d: AR latency %d exceeds pipelined %d", i, ra.LatencyNs, rp.LatencyNs)
		}
		if ra.LatencyNs < rp.LatencyNs {
			arWins++
		}
	}
	if arWins == 0 {
		t.Error("AR never terminated a sense early across 300 aged reads; early termination is not firing")
	}
	if ar.Stats().ARSenses == 0 {
		t.Error("stats.ARSenses = 0 after AR-mode reads with early terminations")
	}
}
