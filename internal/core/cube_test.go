package core

import (
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/workload"
)

func testDevice(seed uint64) (*sim.Engine, *ssd.Device) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = 24
	cfg.Chip.Process.Layers = 8
	cfg.Seed = seed
	return eng, ssd.New(eng, cfg)
}

func TestNames(t *testing.T) {
	_, dev := testDevice(1)
	if New(dev.Geometry()).Name() != "cubeFTL" {
		t.Error("cube name")
	}
	if NewMinus(dev.Geometry()).Name() != "cubeFTL-" {
		t.Error("cube- name")
	}
}

func TestLeaderThenFollowerParams(t *testing.T) {
	_, dev := testDevice(2)
	f := New(dev.Geometry())
	// First program of an h-layer: leader, default params.
	p := f.ProgramParams(0, 3, 2, 0)
	if !p.IsDefault() {
		t.Fatalf("leader params not default: %+v", p)
	}
	// Feed a leader observation through a real chip program.
	ch := dev.Die(0).NAND
	res, err := ch.ProgramWL(nand.Address{Block: 3, Layer: 2, WL: 0}, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if v := f.ObserveProgram(0, 3, 2, 0, p, &res); v != ftl.VerdictOK {
		t.Fatalf("leader verdict = %v", v)
	}
	// Now followers on the same h-layer get tightened parameters.
	fp := f.ProgramParams(0, 3, 2, 1)
	if fp.IsDefault() {
		t.Fatal("follower params are default — OPM not engaged")
	}
	if fp.TotalSkips() == 0 && fp.StartMarginMV+fp.FinalMarginMV == 0 {
		t.Fatal("follower params carry no optimization")
	}
	// A different h-layer is still led by defaults.
	if !f.ProgramParams(0, 3, 5, 1).IsDefault() {
		t.Error("unobserved layer got follower params")
	}
	// And the follower program must be measurably faster.
	fres, err := ch.ProgramWL(nand.Address{Block: 3, Layer: 2, WL: 1}, nil, fp)
	if err != nil {
		t.Fatal(err)
	}
	red := 1 - float64(fres.LatencyNs)/float64(res.LatencyNs)
	if red < 0.15 {
		t.Errorf("follower tPROG reduction = %.3f, want >= 0.15", red)
	}
	stats := f.CubeStats()
	if stats.LeaderPrograms != 1 {
		t.Errorf("leader count = %d", stats.LeaderPrograms)
	}
}

func TestSafetyCheckRejectsDisturbedFollower(t *testing.T) {
	_, dev := testDevice(3)
	f := New(dev.Geometry())
	ch := dev.Die(0).NAND
	lead, err := ch.ProgramWL(nand.Address{Block: 1, Layer: 4, WL: 0}, nil, nand.ProgramParams{})
	if err != nil {
		t.Fatal(err)
	}
	f.ObserveProgram(0, 1, 4, 0, nand.ProgramParams{}, &lead)
	// Forge a disturbed follower result: far-off BER.
	bad := lead
	bad.MeasuredBER = lead.MeasuredBER * 10
	if v := f.ObserveProgram(0, 1, 4, 1, f.ProgramParams(0, 1, 4, 1), &bad); v != ftl.VerdictReprogram {
		t.Fatalf("verdict = %v, want reprogram", v)
	}
	if f.CubeStats().SafetyRejects != 1 {
		t.Error("safety reject not counted")
	}
	// After the reject, the layer re-monitors: next program is a leader.
	if !f.ProgramParams(0, 1, 4, 2).IsDefault() {
		t.Error("layer still using invalidated observation")
	}
}

func TestSafetyCheckDisabled(t *testing.T) {
	_, dev := testDevice(3)
	cfg := DefaultConfig()
	cfg.SafetyCheck = false
	f := NewCubeFTL(dev.Geometry(), cfg)
	ch := dev.Die(0).NAND
	lead, _ := ch.ProgramWL(nand.Address{Block: 1, Layer: 4, WL: 0}, nil, nand.ProgramParams{})
	f.ObserveProgram(0, 1, 4, 0, nand.ProgramParams{}, &lead)
	bad := lead
	bad.MeasuredBER = lead.MeasuredBER * 10
	if v := f.ObserveProgram(0, 1, 4, 1, f.ProgramParams(0, 1, 4, 1), &bad); v != ftl.VerdictOK {
		t.Fatalf("verdict = %v with safety check off", v)
	}
}

func TestORTLifecycle(t *testing.T) {
	_, dev := testDevice(4)
	f := New(dev.Geometry())
	if f.ReadStartOffset(0, 2, 3) != 0 {
		t.Fatal("cold ORT returned nonzero offset")
	}
	f.ObserveRead(0, 2, 3, nand.ReadResult{OffsetUsed: 4}, nil)
	if f.ReadStartOffset(0, 2, 3) != 4 {
		t.Fatal("ORT did not cache the offset")
	}
	// Other layers are unaffected.
	if f.ReadStartOffset(0, 2, 4) != 0 {
		t.Fatal("ORT leaked across layers")
	}
	// An uncorrectable read clears the entry.
	f.ObserveRead(0, 2, 3, nand.ReadResult{}, nand.ErrUncorrectable)
	if f.ReadStartOffset(0, 2, 3) != 0 {
		t.Fatal("ORT entry not cleared on failure")
	}
	// Erase clears entries for the block.
	f.ObserveRead(0, 2, 3, nand.ReadResult{OffsetUsed: 2}, nil)
	f.BlockErased(0, 2)
	if f.ReadStartOffset(0, 2, 3) != 0 {
		t.Fatal("ORT entry survived erase")
	}
	st := f.CubeStats()
	if st.ORTHits == 0 || st.ORTMisses == 0 {
		t.Errorf("ORT stats = %+v", st)
	}
}

func TestORTGranularities(t *testing.T) {
	_, dev := testDevice(5)
	for _, g := range []ORTGranularity{ORTPerLayer, ORTPerBlock, ORTPerChip} {
		cfg := DefaultConfig()
		cfg.ORT = g
		f := NewCubeFTL(dev.Geometry(), cfg)
		f.ObserveRead(0, 2, 3, nand.ReadResult{OffsetUsed: 5}, nil)
		sameLayer := f.ReadStartOffset(0, 2, 3)
		otherLayer := f.ReadStartOffset(0, 2, 4)
		otherBlock := f.ReadStartOffset(0, 9, 3)
		switch g {
		case ORTPerLayer:
			if sameLayer != 5 || otherLayer != 0 || otherBlock != 0 {
				t.Errorf("per-layer: %d %d %d", sameLayer, otherLayer, otherBlock)
			}
		case ORTPerBlock:
			if sameLayer != 5 || otherLayer != 5 || otherBlock != 0 {
				t.Errorf("per-block: %d %d %d", sameLayer, otherLayer, otherBlock)
			}
		case ORTPerChip:
			if sameLayer != 5 || otherLayer != 5 || otherBlock != 5 {
				t.Errorf("per-chip: %d %d %d", sameLayer, otherLayer, otherBlock)
			}
		}
		if f.ORTBytes() <= 0 {
			t.Error("ORTBytes not positive")
		}
	}
}

// §5.1's space overhead: 2 bytes per h-layer is ~1e-5 of the capacity.
func TestORTSpaceOverhead(t *testing.T) {
	eng := sim.NewEngine()
	dev := ssd.New(eng, ssd.DefaultConfig()) // the paper's full 32 GB device
	f := New(dev.Geometry())
	frac := float64(f.ORTBytes()) / float64(dev.Geometry().Bytes())
	if frac > 2e-5 {
		t.Errorf("ORT overhead fraction = %v, want ~1e-5", frac)
	}
}

func TestWAMSelection(t *testing.T) {
	_, dev := testDevice(6)
	f := New(dev.Geometry())
	a := ftl.NewBlockCursor(0, 0, 8, 4)
	b := ftl.NewBlockCursor(0, 1, 8, 4)
	actives := []*ftl.BlockCursor{a, b}

	// Low utilization: WAM spends leaders.
	_, l, w, ok := f.SelectWL(0, actives, 0.2)
	if !ok || w != 0 {
		t.Fatalf("low-mu pick = layer %d wl %d", l, w)
	}
	a.Take(l, w)

	// High utilization with a follower available: WAM picks it.
	_, l2, w2, ok := f.SelectWL(0, actives, 0.95)
	if !ok || w2 == 0 || l2 != l {
		t.Fatalf("high-mu pick = layer %d wl %d, want follower of layer %d", l2, w2, l)
	}

	// High utilization with no follower available falls back to leaders.
	f2 := New(dev.Geometry())
	fresh := []*ftl.BlockCursor{ftl.NewBlockCursor(0, 2, 8, 4)}
	_, _, w3, ok := f2.SelectWL(0, fresh, 0.95)
	if !ok || w3 != 0 {
		t.Fatalf("high-mu fallback picked wl %d", w3)
	}
}

func TestWAMPrefersFollowersAcrossActiveBlocks(t *testing.T) {
	_, dev := testDevice(6)
	f := New(dev.Geometry())
	a := ftl.NewBlockCursor(0, 0, 8, 4)
	b := ftl.NewBlockCursor(0, 1, 8, 4)
	// Exhaust block a's leaders; block b untouched.
	for l := 0; l < 8; l++ {
		a.Take(l, 0)
	}
	// Low mu: leaders come from block b now.
	idx, _, w, ok := f.SelectWL(0, []*ftl.BlockCursor{a, b}, 0.1)
	if !ok || idx != 1 || w != 0 {
		t.Fatalf("pick = block %d wl %d, want block 1 leader", idx, w)
	}
}

func TestCubeMinusFollowsHorizontalOrder(t *testing.T) {
	_, dev := testDevice(6)
	f := NewMinus(dev.Geometry())
	cur := ftl.NewBlockCursor(0, 0, 8, 4)
	var seq []int
	for i := 0; i < 6; i++ {
		_, l, w, ok := f.SelectWL(0, []*ftl.BlockCursor{cur}, 0.99)
		if !ok {
			t.Fatal("selection failed")
		}
		cur.Take(l, w)
		seq = append(seq, l*4+w)
	}
	for i, v := range seq {
		if v != i {
			t.Fatalf("cubeFTL- order = %v, want horizontal-first", seq)
		}
	}
}

// Full-stack integration: cubeFTL on the controller must beat pageFTL's
// mean program latency by roughly the paper's ~30%.
func TestCubeFTLMeanTPROGReduction(t *testing.T) {
	run := func(pol ftl.Policy) float64 {
		eng, dev := testDevice(12)
		cfg := ftl.DefaultControllerConfig()
		cfg.WriteBufferPages = 32
		c := ftl.NewController(dev, pol, cfg)
		src := rng.New(9)
		for i := 0; i < 600; i++ {
			c.Write(ftl.LPN(src.Intn(300)), nil, func() {})
		}
		eng.Run()
		if !c.Drained() {
			t.Fatal("not drained")
		}
		return c.Stats().MeanTPROGNs()
	}
	page := run(ftl.NewPagePolicy())
	_, dev := testDevice(12)
	cube := run(New(dev.Geometry()))
	// Followers run ~30% faster; leaders (1 in 4 word lines) run at
	// default speed, so the overall mean reduction lands near 0.20.
	red := 1 - cube/page
	if red < 0.12 || red > 0.35 {
		t.Errorf("cubeFTL mean tPROG reduction = %.3f, want ~0.20 overall", red)
	}
}

// A block keeps its OPM row until its last program completes, and loses
// it then: a prefill whose acks re-enter the controller (volatile acks:
// an admitted write's ack issues the host's next write from inside the
// completion that freed its slot) must leave a row only on the write
// points, and count exactly one leader program per leader word line on
// the media. Closing a block while its last word line was still being
// programmed made that follower complete as a "leader" of a block with
// no row, which took a fresh row that lived until the block was erased.
func TestPrefillLeavesRowsOnWritePointsOnly(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Chip.Process.BlocksPerChip = 24
	cfg.Seed = 1
	dev := ssd.New(eng, cfg)
	pol := New(dev.Geometry())
	c := ftl.NewController(dev, pol, ftl.DefaultControllerConfig())
	workload.Prefill(c, int64(0.8*float64(c.LogicalPages())))

	geo := dev.Geometry()
	rows, writePoints, leaders := 0, 0, int64(0)
	for _, row := range pol.opm {
		if row != nil {
			rows++
		}
	}
	for chip := 0; chip < geo.Chips; chip++ {
		writePoints += len(c.AppendActives(nil, chip))
		for b := 0; b < geo.BlocksPerChip; b++ {
			for l := 0; l < geo.Layers; l++ {
				if dev.Die(chip).NAND.IsProgrammed(nand.Address{Block: b, Layer: l}) {
					leaders++
				}
			}
		}
	}
	_, opened := c.StampCounters()
	st := pol.CubeStats()
	if opened <= uint64(writePoints) || st.SafetyRejects != 0 {
		t.Fatalf("%d blocks opened for %d write points, %d safety rejects: the prefill closed no block cleanly", opened, writePoints, st.SafetyRejects)
	}
	if rows > writePoints {
		t.Errorf("%d OPM rows after the prefill, %d write points (%d blocks opened)", rows, writePoints, opened)
	}
	if st.LeaderPrograms != leaders {
		t.Errorf("%d leader programs counted, %d leader word lines programmed", st.LeaderPrograms, leaders)
	}
}
