package workload

import (
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

func TestProfilesWellFormed(t *testing.T) {
	if len(All) != 6 {
		t.Fatalf("expected the paper's 6 workloads, got %d", len(All))
	}
	names := map[string]bool{}
	for _, p := range All {
		if p.Name == "" || names[p.Name] {
			t.Fatalf("bad or duplicate profile name %q", p.Name)
		}
		names[p.Name] = true
		if p.ReadFraction < 0 || p.ReadFraction > 1 {
			t.Errorf("%s: read fraction %v", p.Name, p.ReadFraction)
		}
		if len(p.SizesPages) != len(p.SizeWeights) || len(p.SizesPages) == 0 {
			t.Errorf("%s: size distribution malformed", p.Name)
		}
		if p.FootprintFrac <= 0 || p.FootprintFrac > 1 {
			t.Errorf("%s: footprint %v", p.Name, p.FootprintFrac)
		}
	}
	if _, ok := ByName("OLTP"); !ok {
		t.Error("ByName(OLTP) missed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) hit")
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(Rocks, 100000, 42)
	b := NewStream(Rocks, 100000, 42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestStreamBounds(t *testing.T) {
	for _, p := range All {
		s := NewStream(p, 50000, 7)
		reads := 0
		for i := 0; i < 20000; i++ {
			r := s.Next()
			if r.LPN < 0 || r.LPN+int64(r.Pages) > s.Footprint() {
				t.Fatalf("%s: request out of footprint: %+v", p.Name, r)
			}
			if r.Pages < 1 {
				t.Fatalf("%s: empty request", p.Name)
			}
			if r.Op == Read {
				reads++
			}
		}
		frac := float64(reads) / 20000
		if frac < p.ReadFraction-0.02 || frac > p.ReadFraction+0.02 {
			t.Errorf("%s: read fraction %.3f, want ~%.2f", p.Name, frac, p.ReadFraction)
		}
	}
}

func TestOLTPIsMostWriteIntensive(t *testing.T) {
	for _, p := range All {
		if p.Name != "OLTP" && p.ReadFraction <= OLTP.ReadFraction {
			t.Errorf("%s is as write-intensive as OLTP", p.Name)
		}
	}
}

func TestStreamSkew(t *testing.T) {
	s := NewStream(Web, 100000, 3)
	counts := map[int64]int{}
	for i := 0; i < 50000; i++ {
		r := s.Next()
		if r.Op == Read {
			counts[r.LPN]++
		}
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	// A zipfian stream concentrates on hot pages.
	if maxC < 100 {
		t.Errorf("hottest page read %d times — stream not skewed", maxC)
	}
}

func newTestController(seed uint64) *ftl.Controller {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	cfg.Chip.Process.BlocksPerChip = 24
	cfg.Chip.Process.Layers = 8
	cfg.Seed = seed
	dev := ssd.New(eng, cfg)
	ccfg := ftl.DefaultControllerConfig()
	ccfg.WriteBufferPages = 48
	return ftl.NewController(dev, ftl.NewPagePolicy(), ccfg)
}

func TestRunCompletes(t *testing.T) {
	ctrl := newTestController(5)
	gen := NewStream(Mail, int(float64(ctrl.LogicalPages())), 11)
	res := Run(ctrl, gen, RunConfig{Requests: 500, QueueDepth: 16})
	if res.Completed != 500 {
		t.Fatalf("completed %d", res.Completed)
	}
	if res.IOPS() <= 0 {
		t.Fatal("no throughput")
	}
	if res.ReadLat.N()+res.WriteLat.N() != 500 {
		t.Fatalf("latency samples = %d", res.ReadLat.N()+res.WriteLat.N())
	}
	if !ctrl.Drained() {
		t.Fatal("controller not drained after run")
	}
}

func TestPrefillMapsEverything(t *testing.T) {
	ctrl := newTestController(6)
	n := int64(200)
	Prefill(ctrl, n)
	for lpn := ftl.LPN(0); lpn < ftl.LPN(n); lpn++ {
		if ctrl.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
			t.Fatalf("LPN %d unmapped after prefill", lpn)
		}
	}
	ctrl.ResetStats()
	if ctrl.Stats().HostWrites != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestRunReadsAfterPrefillHitFlash(t *testing.T) {
	ctrl := newTestController(8)
	Prefill(ctrl, 500)
	ctrl.ResetStats()
	gen := NewStream(Web, 500, 13)
	res := Run(ctrl, gen, RunConfig{Requests: 300, QueueDepth: 8})
	st := ctrl.Stats()
	flashReads := st.HostReads - st.BufferHits - st.UnmappedReads
	if flashReads == 0 {
		t.Error("no reads reached flash")
	}
	if res.ReadLat.Percentile(50) < 50_000 {
		t.Errorf("median read latency %d ns implausibly low", res.ReadLat.Percentile(50))
	}
}

func TestExtendedProfiles(t *testing.T) {
	if len(Extended) != len(All)+4 {
		t.Fatalf("extended = %d", len(Extended))
	}
	if _, ok := ByName("YCSB-B"); !ok {
		t.Error("YCSB-B missing")
	}
	m, ok := ByName("Mixed")
	if !ok || m.ReadFraction != 0.50 || m.BurstLen != 0 {
		t.Errorf("Mixed = %+v", m)
	}
	b, ok := ByName("Bulk")
	if !ok || b.ReadFraction != 0 {
		t.Errorf("Bulk = %+v", b)
	}
	c, ok := ByName("YCSB-C")
	if !ok || c.ReadFraction != 1.0 {
		t.Errorf("YCSB-C = %+v", c)
	}
	// A read-only stream generates only reads.
	s := NewStream(YCSBC, 10000, 3)
	for i := 0; i < 1000; i++ {
		if s.Next().Op != Read {
			t.Fatal("YCSB-C generated a write")
		}
	}
}
