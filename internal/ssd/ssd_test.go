package ssd

import (
	"slices"
	"testing"
	"testing/quick"

	"cubeftl/internal/nand"
	"cubeftl/internal/process"
	"cubeftl/internal/sim"
	"cubeftl/internal/vth"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Chip.Process.BlocksPerChip = 16
	return cfg
}

func TestGeometryPPNRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	g := d.Geometry()
	f := func(c, b, l, w, p uint8) bool {
		chip := int(c) % g.Chips
		block := int(b) % g.BlocksPerChip
		layer := int(l) % g.Layers
		wl := int(w) % g.WLsPerLayer
		page := int(p) % vth.PagesPerWL
		ppn := g.EncodePPN(chip, block, layer*g.WLsPerLayer+wl, page)
		c2, b2, l2, w2, p2 := g.DecodePPN(ppn)
		return c2 == chip && b2 == block && l2 == layer && w2 == wl && p2 == page
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestGeometryCounts(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, DefaultConfig())
	g := d.Geometry()
	if g.Chips != 8 {
		t.Errorf("Chips = %d", g.Chips)
	}
	if g.PagesPerBlock() != 576 {
		t.Errorf("PagesPerBlock = %d", g.PagesPerBlock())
	}
	// The paper's full device: 8 chips x 428 blocks x 576 pages x 16 KB ~= 31.5 GB.
	if gb := float64(g.Bytes()) / (1 << 30); gb < 30 || gb > 33 {
		t.Errorf("capacity = %.1f GiB, want ~31.5", gb)
	}
}

func TestChipsHaveDistinctProcess(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	a := d.Die(0).NAND.Model().BER(0, 10, 0, process.AgingFresh)
	b := d.Die(1).NAND.Model().BER(0, 10, 0, process.AgingFresh)
	if a == b {
		t.Error("chips share identical process randomness")
	}
}

func TestProgramThenReadTiming(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	a := nand.Address{Block: 0, Layer: 5}
	var progDone, readDone sim.Time
	d.Program(0, a, nil, nil, nand.ProgramParams{}, func(res *nand.ProgramResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		progDone = eng.Now()
		d.Read(0, a, nand.ReadParams{}, nil, func(res nand.ReadResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
			readDone = eng.Now()
		})
	})
	eng.Run()
	// Program: 3 transfers + tPROG; read: sense + transfer.
	if progDone < 3*vth.TXferPageNs+600_000 {
		t.Errorf("program completed too fast: %d ns", progDone)
	}
	if readDone-progDone < vth.TReadNs {
		t.Errorf("read completed too fast: %d ns", readDone-progDone)
	}
}

func TestBusSharedChipsParallelOps(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	d := New(eng, cfg)
	var done []sim.Time
	for chip := 0; chip < 2; chip++ {
		d.Program(chip, nand.Address{Block: 0, Layer: 5}, nil, nil, nand.ProgramParams{},
			func(res *nand.ProgramResult, err error) {
				if err != nil {
					t.Fatal(err)
				}
				done = append(done, eng.Now())
			})
	}
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	// The chips program in parallel; only the bus transfers serialize.
	// Total must be far less than two serial programs.
	if done[1] > 1_100_000 {
		t.Errorf("two parallel programs took %d ns — not overlapped", done[1])
	}
	// And the second completes after the first by roughly the extra
	// bus-transfer serialization, not by a full tPROG.
	if gap := done[1] - done[0]; gap > 400_000 {
		t.Errorf("completion gap %d ns suggests serialization", gap)
	}
}

func TestSameChipOpsSerialize(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	var done []sim.Time
	for wl := 0; wl < 2; wl++ {
		a := nand.Address{Block: 0, Layer: 3, WL: wl}
		d.Program(0, a, nil, nil, nand.ProgramParams{}, func(res *nand.ProgramResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = append(done, eng.Now())
		})
	}
	eng.Run()
	if gap := done[1] - done[0]; gap < 600_000 {
		t.Errorf("same-chip programs overlapped: gap %d ns", gap)
	}
}

func TestEraseTiming(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	var at sim.Time
	d.Erase(0, 3, func(res nand.EraseResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		at = eng.Now()
	})
	eng.Run()
	if at != vth.TEraseNs {
		t.Errorf("erase completed at %d, want %d", at, vth.TEraseNs)
	}
}

func TestPreAge(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	d.PreAge(2000, 12)
	for chip := 0; chip < d.Dies(); chip++ {
		ag := d.Die(chip).NAND.Aging(5)
		if ag.PE != 2000 || ag.RetentionMonths != 12 {
			t.Fatalf("chip %d aging = %+v", chip, ag)
		}
	}
}

func TestUtilizationReporting(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	d.Program(0, nand.Address{Block: 0, Layer: 1}, nil, nil, nand.ProgramParams{}, func(*nand.ProgramResult, error) {})
	eng.Run()
	if d.DieUtilization(0) <= 0 {
		t.Error("die utilization not accounted")
	}
	if d.ChannelUtilization(d.ChannelOf(0)) <= 0 {
		t.Error("channel utilization not accounted")
	}
}

func TestSuspendOpsLetsReadsInterleave(t *testing.T) {
	run := func(suspend bool) sim.Time {
		eng := sim.NewEngine()
		cfg := smallConfig()
		cfg.SuspendOps = suspend
		d := New(eng, cfg)
		// Program a WL first so there is something to read.
		a := nand.Address{Block: 0, Layer: 5}
		progDone := false
		d.Program(0, a, nil, nil, nand.ProgramParams{}, func(res *nand.ProgramResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
			progDone = true
		})
		eng.Run()
		if !progDone {
			t.Fatal("setup program never finished")
		}
		// Start a second long program, then a read right behind it.
		d.Program(0, nand.Address{Block: 0, Layer: 6}, nil, nil, nand.ProgramParams{}, func(*nand.ProgramResult, error) {})
		var readLat sim.Time
		start := eng.Now()
		eng.After(70_000, func() { // read arrives mid-program
			d.Read(0, a, nand.ReadParams{}, nil, func(res nand.ReadResult, err error) {
				if err != nil {
					t.Fatal(err)
				}
				readLat = eng.Now() - start - 70_000
			})
		})
		eng.Run()
		return readLat
	}
	blocking := run(false)
	suspended := run(true)
	if suspended >= blocking {
		t.Fatalf("suspend did not help: %d vs %d ns", suspended, blocking)
	}
	// Without suspend the read waits out most of a ~700us program; with
	// it, at most one ISPP loop (~47us) plus the read itself.
	if blocking < 500_000 {
		t.Errorf("blocking read latency %d ns suspiciously low", blocking)
	}
	if suspended > 300_000 {
		t.Errorf("suspended read latency %d ns too high", suspended)
	}
}

func TestSuspendOpsConservesProgramTime(t *testing.T) {
	// The program's completion time must be identical with and without
	// segmentation when nothing interleaves.
	var times [2]sim.Time
	for i, suspend := range []bool{false, true} {
		eng := sim.NewEngine()
		cfg := smallConfig()
		cfg.SuspendOps = suspend
		d := New(eng, cfg)
		d.Program(0, nand.Address{Block: 1, Layer: 9}, nil, nil, nand.ProgramParams{},
			func(res *nand.ProgramResult, err error) {
				if err != nil {
					t.Fatal(err)
				}
				times[i] = eng.Now()
			})
		eng.Run()
	}
	if times[0] != times[1] {
		t.Errorf("segmentation changed idle program time: %d vs %d", times[0], times[1])
	}
}

// InflightMediaOps lists the programs and erases inside their latency
// windows in the order the windows opened, and an operation leaves the
// list when it completes, from wherever it sits in it.
func TestInflightMediaOpsInIssueOrder(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, smallConfig())
	done := func(*nand.ProgramResult, error) {}
	d.Erase(1, 3, func(nand.EraseResult, error) {})
	d.Program(0, nand.Address{Block: 0, Layer: 2}, nil, nil, nand.ProgramParams{}, done)
	d.Program(2, nand.Address{Block: 5, Layer: 1}, nil, nil, nand.ProgramParams{}, done)
	eng.RunWhile(func() bool { return len(d.InflightMediaOps()) < 3 })
	want := []MediaOp{
		{Kind: MediaErase, Die: 1, Block: 3},
		{Kind: MediaProgram, Die: 0, Addr: nand.Address{Block: 0, Layer: 2}},
		{Kind: MediaProgram, Die: 2, Addr: nand.Address{Block: 5, Layer: 1}},
	}
	if got := d.InflightMediaOps(); !slices.Equal(got, want) {
		t.Fatalf("in flight %+v, want %+v", got, want)
	}
	// The programs end well inside the erase's window, the first one
	// first: it leaves the middle of the list.
	eng.RunWhile(func() bool { return len(d.InflightMediaOps()) == 3 })
	if got := d.InflightMediaOps(); !slices.Equal(got, []MediaOp{want[0], want[2]}) {
		t.Fatalf("after the first program, in flight %+v", got)
	}
	eng.Run()
	if got := d.InflightMediaOps(); len(got) != 0 {
		t.Fatalf("after the run, in flight %+v", got)
	}
}
