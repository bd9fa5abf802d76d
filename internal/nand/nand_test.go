package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"cubeftl/internal/process"
	"cubeftl/internal/vth"
)

func newChip(t testing.TB) *Chip {
	t.Helper()
	return New(DefaultConfig())
}

func mustProgram(t *testing.T, c *Chip, a Address, p ProgramParams) ProgramResult {
	t.Helper()
	res, err := c.ProgramWL(a, nil, p)
	if err != nil {
		t.Fatalf("ProgramWL(%v): %v", a, err)
	}
	return res
}

func TestGeometry(t *testing.T) {
	c := newChip(t)
	if c.WLsPerBlock() != 48*4 {
		t.Errorf("WLsPerBlock = %d", c.WLsPerBlock())
	}
	if c.PagesPerBlock() != 48*4*3 {
		t.Errorf("PagesPerBlock = %d", c.PagesPerBlock())
	}
	if c.Blocks() != 428 {
		t.Errorf("Blocks = %d", c.Blocks())
	}
}

func TestAddressValidation(t *testing.T) {
	c := newChip(t)
	bad := []Address{
		{Block: -1}, {Block: 428}, {Layer: 48}, {WL: 4}, {Page: 3},
		{Block: 0, Layer: -1}, {Block: 0, WL: -1}, {Page: -1},
	}
	for _, a := range bad {
		if _, err := c.ReadPage(a, ReadParams{}); !errors.Is(err, ErrBadAddress) {
			t.Errorf("ReadPage(%v) err = %v, want ErrBadAddress", a, err)
		}
	}
}

func TestProgramReadLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreData = true
	c := New(cfg)
	a := Address{Block: 1, Layer: 10, WL: 2}
	pages := [][]byte{
		bytes.Repeat([]byte{0xAA}, cfg.PageBytes),
		bytes.Repeat([]byte{0xBB}, cfg.PageBytes),
		bytes.Repeat([]byte{0xCC}, cfg.PageBytes),
	}
	if _, err := c.ReadPage(a, ReadParams{}); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("read before program: %v", err)
	}
	if _, err := c.ProgramWL(a, pages, ProgramParams{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProgramWL(a, pages, ProgramParams{}); !errors.Is(err, ErrNotErased) {
		t.Fatalf("double program: %v", err)
	}
	for p := 0; p < vth.PagesPerWL; p++ {
		r, err := c.ReadPage(Address{Block: 1, Layer: 10, WL: 2, Page: p}, ReadParams{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data, pages[p]) {
			t.Fatalf("page %d round trip mismatch", p)
		}
	}
	if _, err := c.EraseBlock(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadPage(a, ReadParams{}); !errors.Is(err, ErrNotProgrammed) {
		t.Fatalf("read after erase: %v", err)
	}
	if c.PECycles(1) != 1 {
		t.Errorf("PECycles = %d", c.PECycles(1))
	}
}

func TestProgramNeedsPagesWhenStoring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StoreData = true
	c := New(cfg)
	if _, err := c.ProgramWL(Address{}, nil, ProgramParams{}); err == nil {
		t.Fatal("ProgramWL with nil pages succeeded on a data-storing chip")
	}
}

// Default (leader) program must land at the paper's ~700 us.
func TestDefaultProgramLatency(t *testing.T) {
	c := newChip(t)
	res := mustProgram(t, c, Address{Block: 0, Layer: c.Model().BestLayer()}, ProgramParams{})
	if res.LatencyNs < 650_000 || res.LatencyNs > 780_000 {
		t.Errorf("default tPROG = %d ns, want ~700 us", res.LatencyNs)
	}
	if res.Loops != vth.DefaultMaxLoop {
		t.Errorf("Loops = %d, want %d", res.Loops, vth.DefaultMaxLoop)
	}
	if res.Skipped != 0 {
		t.Errorf("Skipped = %d on default program", res.Skipped)
	}
	if len(res.Windows) != vth.ProgramStates {
		t.Errorf("Windows = %d states", len(res.Windows))
	}
}

// Process similarity: programming any WL of the same h-layer observes
// the same windows and latency (Fig 5(d)).
func TestSameLayerSameProgram(t *testing.T) {
	c := newChip(t)
	var first ProgramResult
	for wl := 0; wl < 4; wl++ {
		res := mustProgram(t, c, Address{Block: 7, Layer: 20, WL: wl}, ProgramParams{})
		if wl == 0 {
			first = res
			continue
		}
		if res.LatencyNs != first.LatencyNs {
			t.Errorf("WL %d latency %d != leader %d", wl, res.LatencyNs, first.LatencyNs)
		}
		for i := range res.Windows {
			if res.Windows[i] != first.Windows[i] {
				t.Errorf("WL %d window %d differs: %+v vs %+v", wl, i, res.Windows[i], first.Windows[i])
			}
		}
	}
}

// The safe skip plan derived from the leader's windows must cut ~16% of
// tPROG (§4.1.1's 16.2%).
func TestVfySkipReduction(t *testing.T) {
	c := newChip(t)
	leader := mustProgram(t, c, Address{Block: 3, Layer: 25, WL: 0}, ProgramParams{})
	var p ProgramParams
	for i, w := range leader.Windows {
		p.SkipVFY[i] = w.MinLoop - 1
	}
	follower := mustProgram(t, c, Address{Block: 3, Layer: 25, WL: 1}, p)
	red := 1 - float64(follower.LatencyNs)/float64(leader.LatencyNs)
	if red < 0.12 || red > 0.20 {
		t.Errorf("VFY-skip tPROG reduction = %.3f, want ~0.162", red)
	}
	if follower.Skipped == 0 {
		t.Error("no verifies skipped")
	}
	if follower.Loops != leader.Loops {
		t.Errorf("skipping changed loop count: %d vs %d", follower.Loops, leader.Loops)
	}
	// Within-budget skipping must not meaningfully degrade BER.
	if follower.MeasuredBER > 2*leader.MeasuredBER {
		t.Errorf("safe skipping degraded BER: %v vs %v", follower.MeasuredBER, leader.MeasuredBER)
	}
}

// A 320 mV margin (the Fig 11 anchor) must cut ~3 loops (~18-20%).
func TestMarginReduction(t *testing.T) {
	c := newChip(t)
	leader := mustProgram(t, c, Address{Block: 5, Layer: 25, WL: 0}, ProgramParams{})
	s, f := vth.SplitMargin(320)
	follower := mustProgram(t, c, Address{Block: 5, Layer: 25, WL: 1},
		ProgramParams{StartMarginMV: s, FinalMarginMV: f})
	if follower.Loops != leader.Loops-3 {
		t.Errorf("loops = %d, want leader-3 = %d", follower.Loops, leader.Loops-3)
	}
	red := 1 - float64(follower.LatencyNs)/float64(leader.LatencyNs)
	if red < 0.15 || red > 0.25 {
		t.Errorf("margin tPROG reduction = %.3f, want ~0.197", red)
	}
}

// Combined skip + margin must reach the paper's ~30% average and stay
// under the 35.9% max at the 400 mV cap.
func TestCombinedReduction(t *testing.T) {
	c := newChip(t)
	leader := mustProgram(t, c, Address{Block: 9, Layer: 25, WL: 0}, ProgramParams{})
	s, f := vth.SplitMargin(320)
	startLoops := vth.LoopsSaved(s)
	var p ProgramParams
	p.StartMarginMV, p.FinalMarginMV = s, f
	for i, w := range leader.Windows {
		if skip := w.MinLoop - startLoops - 1; skip > 0 {
			p.SkipVFY[i] = skip
		}
	}
	follower := mustProgram(t, c, Address{Block: 9, Layer: 25, WL: 1}, p)
	red := 1 - float64(follower.LatencyNs)/float64(leader.LatencyNs)
	if red < 0.25 || red > 0.359 {
		t.Errorf("combined tPROG reduction = %.3f, want ~0.30 (max 0.359)", red)
	}
}

// Over-aggressive skipping must visibly raise the stored BER (Fig 8(a)).
func TestOverSkipRaisesBER(t *testing.T) {
	c := newChip(t)
	safeRes := mustProgram(t, c, Address{Block: 11, Layer: 25, WL: 0}, ProgramParams{})
	var over ProgramParams
	for i := range over.SkipVFY {
		over.SkipVFY[i] = safeRes.Windows[i].MinLoop + 2 // 3 beyond safe
	}
	res := mustProgram(t, c, Address{Block: 11, Layer: 25, WL: 1}, over)
	if res.MeasuredBER < 3*safeRes.MeasuredBER {
		t.Errorf("over-skipping BER %v not clearly above safe %v", res.MeasuredBER, safeRes.MeasuredBER)
	}
	// The word line's BER at the optimal read offset, with its program
	// penalty and its block's read disturb.
	stored := func(a Address) float64 {
		blk := &c.blocks[a.Block]
		return storedBER(c.model.BER(a.Block, a.Layer, a.WL, c.aging(a.Block)), &blk.wls[c.wlIndex(a)], blk)
	}
	if stored(Address{Block: 11, Layer: 25, WL: 1}) <= stored(Address{Block: 11, Layer: 25, WL: 0}) {
		t.Error("stored BER did not reflect over-skipping")
	}
}

func TestFreshReadNoRetries(t *testing.T) {
	c := newChip(t)
	for l := 0; l < 48; l += 5 {
		a := Address{Block: 2, Layer: l}
		mustProgram(t, c, a, ProgramParams{})
		r, err := c.ReadPage(a, ReadParams{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Retries != 0 {
			t.Errorf("fresh read of layer %d took %d retries", l, r.Retries)
		}
		if r.LatencyNs < vth.TReadNs || r.LatencyNs > vth.TReadNs+10_000 {
			t.Errorf("fresh tREAD = %d ns, want ~%d", r.LatencyNs, vth.TReadNs)
		}
	}
}

func TestAgedReadRetryBehaviour(t *testing.T) {
	c := newChip(t)
	c.SetFixedRetention(12)
	sawRetries := false
	for blk := 0; blk < 40; blk++ {
		c.SetPECycles(blk, 2000)
		a := Address{Block: blk, Layer: c.Model().WorstLayer()}
		mustProgram(t, c, a, ProgramParams{})
		opt := c.OptimalOffsetFor(blk, a.Layer)

		// PS-unaware: ladder from the default voltages.
		r0, err := c.ReadPage(a, ReadParams{})
		if err != nil {
			t.Fatalf("block %d unaware read: %v", blk, err)
		}
		if r0.Retries > 0 {
			sawRetries = true
		}
		// PS-aware: start at the true optimum -> no retries.
		r1, err := c.ReadPage(a, ReadParams{StartOffset: opt})
		if err != nil {
			t.Fatalf("block %d aware read: %v", blk, err)
		}
		if r1.Retries != 0 {
			t.Errorf("block %d: read at optimal offset %d still took %d retries", blk, opt, r1.Retries)
		}
		if r0.Retries > 0 && r0.LatencyNs <= r1.LatencyNs {
			t.Errorf("block %d: retried read not slower (%d vs %d)", blk, r0.LatencyNs, r1.LatencyNs)
		}
	}
	if !sawRetries {
		t.Error("no end-of-life read needed retries on the worst layer")
	}
}

func TestReadRetryBudgetExhaustion(t *testing.T) {
	c := newChip(t)
	c.SetFixedRetention(12)
	c.SetPECycles(0, 2000)
	a := Address{Block: 0, Layer: c.Model().WorstLayer()}
	mustProgram(t, c, a, ProgramParams{})
	if c.OptimalOffsetFor(0, a.Layer) < 2 {
		t.Skip("this block/layer did not drift far enough to test budget exhaustion")
	}
	_, err := c.ReadPage(a, ReadParams{MaxRetries: 1})
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
	if c.Stats().ReadFailures == 0 {
		t.Error("failure not counted")
	}
}

func TestLadder(t *testing.T) {
	got := ladder(0, 16)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("ladder(0) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder(0) = %v, want %v", got, want)
		}
	}
	got = ladder(3, 16)
	want = []int{3, 4, 2, 5, 1, 6, 0, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder(3) = %v, want %v", got, want)
		}
	}
	if g := ladder(99, 4); g[0] != vth.MaxReadOffsetLevel {
		t.Errorf("ladder clamps start: %v", g)
	}
	if g := ladder(-3, 4); g[0] != 0 {
		t.Errorf("ladder clamps negative start: %v", g)
	}
	if g := ladder(0, 3); len(g) != 3 {
		t.Errorf("ladder budget: %v", g)
	}
}

func TestDisturbanceFlagsSuspect(t *testing.T) {
	c := newChip(t)
	c.SetDisturbProb(1)
	res := mustProgram(t, c, Address{Block: 20, Layer: 30}, ProgramParams{})
	if !res.Suspect {
		t.Fatal("forced disturbance not flagged")
	}
	clean := New(DefaultConfig())
	cleanRes := mustProgram(t, clean, Address{Block: 20, Layer: 30}, ProgramParams{})
	if res.MeasuredBER < 2*cleanRes.MeasuredBER {
		t.Errorf("disturbed BER %v not clearly above clean %v", res.MeasuredBER, cleanRes.MeasuredBER)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := newChip(t)
	mustProgram(t, c, Address{Block: 0, Layer: 0}, ProgramParams{})
	if _, err := c.ReadPage(Address{Block: 0, Layer: 0}, ReadParams{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.ProgramLoops == 0 || s.Verifies == 0 {
		t.Errorf("micro-op stats empty: %+v", s)
	}
}

func TestSampleRetentionErrorsScales(t *testing.T) {
	c := newChip(t)
	a := Address{Block: 0, Layer: c.Model().WorstLayer()}
	fresh := c.SampleRetentionErrors(a, process.AgingFresh)
	aged := c.SampleRetentionErrors(a, process.AgingEndOfLife)
	if aged <= fresh {
		t.Errorf("aged errors %d not above fresh %d", aged, fresh)
	}
}

func TestQuickProgramLatencyMonotoneInSkips(t *testing.T) {
	c := newChip(t)
	f := func(layerRaw, k1, k2 uint8) bool {
		layer := int(layerRaw) % 48
		// Two skip plans, plan B skipping at least as much per state.
		var pa, pb ProgramParams
		for i := range pa.SkipVFY {
			a := int(k1) % 3
			pa.SkipVFY[i] = a
			pb.SkipVFY[i] = a + int(k2)%3
		}
		blk := int(k1)%200 + 1
		ra, err := c.ProgramWL(Address{Block: blk, Layer: layer, WL: 0}, nil, pa)
		if err != nil {
			return true // block full from earlier iterations; skip
		}
		rb, err := c.ProgramWL(Address{Block: blk, Layer: layer, WL: 1}, nil, pb)
		if err != nil {
			return true
		}
		return rb.LatencyNs <= ra.LatencyNs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickReadAlwaysDecodesWithFullBudget(t *testing.T) {
	// With the full ladder budget and sane aging, reads must decode:
	// the optimum is always within the ladder.
	c := newChip(t)
	c.SetFixedRetention(12)
	f := func(blkRaw, layerRaw uint8) bool {
		blk := int(blkRaw) % c.Blocks()
		layer := int(layerRaw) % 48
		c.SetPECycles(blk, 2000)
		a := Address{Block: blk, Layer: layer, WL: 3}
		if !c.IsProgrammed(a) {
			if _, err := c.ProgramWL(a, nil, ProgramParams{}); err != nil {
				return false
			}
		}
		_, err := c.ReadPage(a, ReadParams{})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
