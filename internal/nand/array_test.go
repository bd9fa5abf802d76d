package nand

import "testing"

func testArrayConfig(channels, dies int) ArrayConfig {
	cfg := DefaultArrayConfig()
	cfg.Channels, cfg.DiesPerChannel = channels, dies
	cfg.Chip.Process.BlocksPerChip = 8
	return cfg
}

func TestArrayTopologyValidation(t *testing.T) {
	for _, tc := range [][2]int{{0, 4}, {2, 0}, {-1, 4}, {2, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("topology %dx%d accepted", tc[0], tc[1])
				}
			}()
			NewArray(testArrayConfig(tc[0], tc[1]))
		}()
	}
}

func TestArrayDieSeedsAndChannelMap(t *testing.T) {
	cfg := testArrayConfig(2, 4)
	a := NewArray(cfg)
	if a.Channels() != 2 || a.DiesPerChannel() != 4 || a.Dies() != 8 {
		t.Fatalf("topology = %dx%d, %d dies", a.Channels(), a.DiesPerChannel(), a.Dies())
	}
	seen := map[uint64]bool{}
	for i := 0; i < a.Dies(); i++ {
		want := cfg.Seed*1_000_003 + uint64(i)*7919
		got := a.Die(i).Config().Process.Seed
		if got != want {
			t.Errorf("die %d seed = %d, want %d", i, got, want)
		}
		if seen[got] {
			t.Errorf("die %d seed %d reused", i, got)
		}
		seen[got] = true
		if ch := a.ChannelOf(i); ch != i%2 {
			t.Errorf("die %d on channel %d", i, ch)
		}
	}
}

func TestArrayDieSeedsDeterministic(t *testing.T) {
	a := NewArray(testArrayConfig(2, 2))
	b := NewArray(testArrayConfig(2, 2))
	for i := 0; i < a.Dies(); i++ {
		as, bs := a.Die(i).Config().Process.Seed, b.Die(i).Config().Process.Seed
		if as != bs {
			t.Errorf("die %d seed differs across same-seed builds: %d vs %d", i, as, bs)
		}
	}
}

func TestArraySetDieFaultsIsolated(t *testing.T) {
	a := NewArray(testArrayConfig(1, 3))
	a.SetDieFaults(1, FaultConfig{ProgramFailRate: 1})
	for i := 0; i < a.Dies(); i++ {
		got := a.Die(i).Faults().ProgramFailRate
		want := 0.0
		if i == 1 {
			want = 1
		}
		if got != want {
			t.Errorf("die %d ProgramFailRate = %v, want %v", i, got, want)
		}
	}
	a.SetFaults(FaultConfig{EraseFailRate: 0.5})
	for i := 0; i < a.Dies(); i++ {
		if got := a.Die(i).Faults().EraseFailRate; got != 0.5 {
			t.Errorf("die %d EraseFailRate = %v after SetFaults", i, got)
		}
	}
}

func TestArrayStatsAggregate(t *testing.T) {
	a := NewArray(testArrayConfig(2, 2))
	var wantErases int64
	for i := 0; i < a.Dies(); i++ {
		for b := 0; b <= i; b++ { // die i erases i+1 blocks
			if _, err := a.Die(i).EraseBlock(b); err != nil {
				t.Fatalf("die %d erase %d: %v", i, b, err)
			}
			wantErases++
		}
	}
	if got := a.Stats().Erases; got != wantErases {
		t.Errorf("aggregate Erases = %d, want %d", got, wantErases)
	}
	var sum int64
	for i := 0; i < a.Dies(); i++ {
		sum += a.Die(i).Stats().Erases
	}
	if sum != wantErases {
		t.Errorf("per-die Erases sum = %d, want %d", sum, wantErases)
	}
}
