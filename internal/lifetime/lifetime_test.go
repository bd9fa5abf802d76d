package lifetime

import (
	"testing"
	"time"

	"cubeftl/internal/ecc"
	"cubeftl/internal/nand"
	"cubeftl/internal/vth"
)

func testArray(seed uint64) *nand.Array {
	cfg := nand.DefaultArrayConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = 16
	cfg.Chip.Process.Layers = 8
	cfg.Seed = seed
	return nand.NewArray(cfg)
}

// programOne writes word line 0 of a block so it holds data.
func programOne(t *testing.T, chip *nand.Chip, block int) {
	t.Helper()
	if _, err := chip.ProgramWL(nand.Address{Block: block}, nil, nand.ProgramParams{}); err != nil {
		t.Fatalf("ProgramWL(block %d): %v", block, err)
	}
}

// Two arrays, same seeds, same fast-forward: per-block wear, retention,
// and bad-block state must be bit-identical.
func TestFastForwardDeterministic(t *testing.T) {
	mk := func() (*nand.Array, *Ager) {
		arr := testArray(7)
		for d := 0; d < arr.Dies(); d++ {
			for b := 0; b < 8; b++ {
				programOne(t, arr.Die(d), b)
			}
		}
		ag := NewAger(99)
		ag.badPerDieYear = 4 // high enough to exercise growth
		return arr, ag
	}
	a1, g1 := mk()
	a2, g2 := mk()
	// Two hops on each, to cover the round counter.
	r1a := g1.FastForward(a1, 12, nil, Hooks{})
	r1b := g1.FastForward(a1, 24, nil, Hooks{})
	r2a := g2.FastForward(a2, 12, nil, Hooks{})
	r2b := g2.FastForward(a2, 24, nil, Hooks{})
	if r1a != r2a || r1b != r2b {
		t.Fatalf("reports differ: %+v/%+v vs %+v/%+v", r1a, r1b, r2a, r2b)
	}
	for d := 0; d < a1.Dies(); d++ {
		c1, c2 := a1.Die(d), a2.Die(d)
		for b := 0; b < c1.Blocks(); b++ {
			if c1.PECycles(b) != c2.PECycles(b) {
				t.Fatalf("die %d block %d: PE %d vs %d", d, b, c1.PECycles(b), c2.PECycles(b))
			}
			if c1.RetentionMonths(b) != c2.RetentionMonths(b) {
				t.Fatalf("die %d block %d: retention %v vs %v", d, b, c1.RetentionMonths(b), c2.RetentionMonths(b))
			}
			if c1.IsBadBlock(b) != c2.IsBadBlock(b) {
				t.Fatalf("die %d block %d: bad %v vs %v", d, b, c1.IsBadBlock(b), c2.IsBadBlock(b))
			}
		}
	}
	if r1b.PEAdded == 0 {
		t.Fatal("fast-forward added no wear")
	}
}

// Retention advances only for blocks holding data; erased blocks stay
// fresh so data written later is not born old.
func TestFastForwardRetentionOnlyData(t *testing.T) {
	arr := testArray(3)
	chip := arr.Die(0)
	programOne(t, chip, 2)
	ag := NewAger(5)
	ag.badPerDieYear = 0
	ag.FastForward(arr, 18, nil, Hooks{})
	if got := chip.RetentionMonths(2); got != 18 {
		t.Fatalf("data block retention = %v, want 18", got)
	}
	if got := chip.RetentionMonths(3); got != 0 {
		t.Fatalf("erased block retention = %v, want 0", got)
	}
	// Erase resets the clock — this is what a refresh buys.
	if _, err := chip.EraseBlock(2); err != nil {
		t.Fatal(err)
	}
	if got := chip.RetentionMonths(2); got != 0 {
		t.Fatalf("post-erase retention = %v, want 0", got)
	}
}

// Bucket jumps fire exactly for data blocks whose age crossed a
// boundary of the supplied bucketization.
func TestFastForwardBucketJumps(t *testing.T) {
	arr := testArray(11)
	chip := arr.Die(0)
	programOne(t, chip, 0)
	bucketFor := func(m float64) int {
		if m <= 6 {
			return 0
		}
		return 1
	}
	var jumps [][4]int
	hooks := Hooks{BucketJump: func(die, block, o, n int) {
		jumps = append(jumps, [4]int{die, block, o, n})
	}}
	ag := NewAger(5)
	ag.badPerDieYear = 0
	rep := ag.FastForward(arr, 4, bucketFor, hooks) // 0 -> 4mo: same bucket
	if rep.BucketJumps != 0 || len(jumps) != 0 {
		t.Fatalf("unexpected jumps at 4mo: %v", jumps)
	}
	rep = ag.FastForward(arr, 4, bucketFor, hooks) // 4 -> 8mo: crosses
	if rep.BucketJumps != 1 || len(jumps) != 1 {
		t.Fatalf("want exactly one jump, got report %d, hook %v", rep.BucketJumps, jumps)
	}
	if jumps[0] != [4]int{0, 0, 0, 1} {
		t.Fatalf("jump = %v, want [0 0 0 1]", jumps[0])
	}
}

// The GrowBad hook can veto; vetoed blocks are not counted or marked.
func TestFastForwardGrowBadVeto(t *testing.T) {
	arr := testArray(13)
	ag := NewAger(21)
	ag.badPerDieYear = 1000 // force growth
	rep := ag.FastForward(arr, 12, nil, Hooks{GrowBad: func(die, block int) bool { return false }})
	if rep.BadBlocksGrown != 0 {
		t.Fatalf("vetoed growth still counted: %d", rep.BadBlocksGrown)
	}
	for d := 0; d < arr.Dies(); d++ {
		for b := 0; b < arr.Die(d).Blocks(); b++ {
			if arr.Die(d).IsBadBlock(b) {
				t.Fatalf("vetoed block (%d,%d) marked bad", d, b)
			}
		}
	}
	rep = ag.FastForward(arr, 12, nil, Hooks{}) // nil hook: marks media
	if rep.BadBlocksGrown == 0 {
		t.Fatal("no bad blocks grown at a forced rate")
	}
}

func TestRefreshPolicy(t *testing.T) {
	if NeedsRefresh(0, 0) {
		t.Fatal("fresh block wants refresh")
	}
	if !NeedsRefresh(0, MaxRetentionMonths) {
		t.Fatal("age ceiling not enforced")
	}
	if !NeedsRefresh(ecc.LimitBER, 0) {
		t.Fatal("BER at the ECC limit not refreshed")
	}
	if NeedsRefresh(0.1*ecc.LimitBER, 1) {
		t.Fatal("healthy block refreshed")
	}
	// The cliff is expressed on the E<->P1 boundary.
	if vth.BerEP1(ecc.LimitBER) < BerEP1Cliff {
		t.Fatal("default cliff above the ECC limit itself")
	}
}

func TestWearPolicyAndSnapshot(t *testing.T) {
	arr := testArray(17)
	chip := arr.Die(0)
	for b := 0; b < chip.Blocks(); b++ {
		chip.SetPECycles(b, 100+b*10)
	}
	chip.MarkBadBlock(0) // bad blocks drop out of the snapshot
	s := TakeEraseSnapshot(arr)
	if got := len(s.Dies[0]); got != chip.Blocks()-1 {
		t.Fatalf("snapshot kept %d blocks, want %d", got, chip.Blocks()-1)
	}
	if s.DieQuantile(0, 1) != 100+(chip.Blocks()-1)*10 {
		t.Fatalf("max quantile = %d", s.DieQuantile(0, 1))
	}
	if s.DieQuantile(0, 0) != 110 {
		t.Fatalf("min quantile = %d (bad block should be excluded)", s.DieQuantile(0, 0))
	}
	if s.DieQuantile(0, 0.5) <= 110 || s.DieQuantile(0, 0.5) >= 250 {
		t.Fatalf("median quantile = %d out of range", s.DieQuantile(0, 0.5))
	}
	spread := s.Spread()
	if spread != 250-0 { // die 1 is all-zero wear
		t.Fatalf("spread = %d, want 250", spread)
	}
	if !ShouldLevel(0, spread) {
		t.Fatal("large spread not leveled")
	}
	if ShouldLevel(100, 100+WearSpreadThreshold) {
		t.Fatal("small spread leveled")
	}
}

func TestWAF(t *testing.T) {
	w := NewWAF(100, 40, 8, 2, 16*1024)
	if w.Factor != 1.5 {
		t.Fatalf("factor = %v", w.Factor)
	}
	if w.HostBytes != 100*16*1024 || w.GCBytes != 40*16*1024 || w.RefreshBytes != 8*16*1024 || w.WLBytes != 2*16*1024 {
		t.Fatalf("byte conversion wrong: %+v", w)
	}
	if NewWAF(0, 5, 0, 0, 16*1024).Factor != 0 {
		t.Fatal("factor without host writes not 0")
	}
}

func TestDurationMonths(t *testing.T) {
	if m := DurationMonths(730 * time.Hour); m != 1 {
		t.Fatalf("730h = %v months", m)
	}
	if m := DurationMonths(3 * 12 * 730 * time.Hour); m != 36 {
		t.Fatalf("3y = %v months", m)
	}
}
