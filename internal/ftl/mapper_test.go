package ftl

import (
	"testing"

	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

func testGeo() ssd.Geometry {
	cfg := ssd.DefaultConfig()
	cfg.Chip.Process.BlocksPerChip = 8
	cfg.Chip.Process.Layers = 4
	return ssd.New(sim.NewEngine(), cfg).Geometry()
}

func TestMapperLifecycle(t *testing.T) {
	g := testGeo()
	m := testMapper(g, 100)
	if m.Lookup(5) != ssd.UnmappedPPN {
		t.Fatal("fresh mapper has mappings")
	}
	ppn := g.EncodePPN(0, 0, 0, 0)
	m.Map(5, ppn)
	if m.Lookup(5) != ppn {
		t.Fatal("lookup after map failed")
	}
	if m.Owner(ppn) != 5 {
		t.Fatal("owner wrong")
	}
	if m.ValidCount(0, 0) != 1 {
		t.Fatal("valid count wrong")
	}
	// Remap to a new location invalidates the old one.
	ppn2 := g.EncodePPN(1, 2, 3, 1)
	m.Map(5, ppn2)
	if m.Owner(ppn) != UnmappedLPN || m.ValidCount(0, 0) != 0 {
		t.Fatal("old mapping not released")
	}
	if m.ValidCount(1, 2) != 1 {
		t.Fatal("new block count wrong")
	}
	m.Invalidate(5)
	if m.Lookup(5) != ssd.UnmappedPPN || m.ValidCount(1, 2) != 0 {
		t.Fatal("invalidate failed")
	}
}

func TestMapperDoubleMapPanics(t *testing.T) {
	g := testGeo()
	m := testMapper(g, 100)
	ppn := g.EncodePPN(0, 1, 2, 0)
	m.Map(1, ppn)
	defer func() {
		if recover() == nil {
			t.Fatal("mapping two LPNs to one PPN did not panic")
		}
	}()
	m.Map(2, ppn)
}

func TestMapperClearBlockGuard(t *testing.T) {
	g := testGeo()
	m := testMapper(g, 100)
	m.Map(1, g.EncodePPN(0, 3, 0, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("clearing a block with valid pages did not panic")
		}
	}()
	m.ClearBlock(0, 3)
}

func TestMapperAppendLivePages(t *testing.T) {
	g := testGeo()
	m := testMapper(g, 100)
	m.Map(10, g.EncodePPN(0, 2, 0, 0))
	m.Map(11, g.EncodePPN(0, 2, 0, 2))
	m.Map(12, g.EncodePPN(0, 3, 0, 0)) // other block
	live := m.AppendLivePages([]LPN{7}, 0, 2)
	if len(live) != 3 || live[0] != 7 || live[1] != 10 || live[2] != 11 {
		t.Errorf("AppendLivePages = %v, want [7 10 11]", live)
	}
	if n := testing.AllocsPerRun(10, func() { live = m.AppendLivePages(live[:0], 0, 2) }); n != 0 {
		t.Errorf("refilling a slice with room: %v allocations, want 0", n)
	}
	m.Invalidate(10)
	m.Invalidate(11)
	m.ClearBlock(0, 2) // must not panic now
	if got := m.AppendLivePages(nil, 0, 2); len(got) != 0 {
		t.Errorf("AppendLivePages after clear = %v", got)
	}
	if got := m.Owner(g.EncodePPN(0, 3, 0, 0)); got != 12 {
		t.Errorf("Owner = %d, want 12", got)
	}
	if got := m.Owner(g.EncodePPN(0, 2, 0, 0)); got != UnmappedLPN {
		t.Errorf("Owner of a cleared page = %d, want UnmappedLPN", got)
	}
}

func TestMapperCapacityGuard(t *testing.T) {
	g := testGeo()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized logical capacity did not panic")
		}
	}()
	testMapper(g, g.PhysPages()+1)
}

// testMapper is a mapper of n logical pages over g that maps nothing.
func testMapper(g ssd.Geometry, n int) *Mapper {
	forward := make([]ssd.PPN, n)
	for i := range forward {
		forward[i] = ssd.UnmappedPPN
	}
	return newMapper(g, forward)
}
