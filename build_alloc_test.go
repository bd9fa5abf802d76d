package cubeftl

import "testing"

// The device-build allocation gate (DESIGN.md §18): a NAND die is a
// handful of allocations — one block table, one word-line slab, the
// process model's per-block and per-word-line tables, whose derived
// random sources stay on the stack — so building `mixed-fresh`'s
// 2x4x128 device costs a number of allocations set by its dies, not by
// its blocks or h-layers (52 532 while every (block, h-layer) pair
// derived a heap-allocated source and every block its own word-line
// slice). The Benchmark twin reports the same with -benchmem.

// buildOptions is `bench/`'s mixed-fresh device.
var buildOptions = Options{FTL: FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 128}

func TestNewAllocs(t *testing.T) {
	n := testing.AllocsPerRun(3, func() {
		if _, err := New(buildOptions); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("New(2x4x128): %.0f allocations", n)
	if n > 2000 {
		t.Errorf("New(2x4x128) makes %.0f allocations, want at most 2000", n)
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(buildOptions); err != nil {
			b.Fatal(err)
		}
	}
}
