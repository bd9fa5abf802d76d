package cache

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"cubeftl/internal/rng"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	if cfg.SizePages > 0 && c == nil {
		t.Fatalf("New(%+v): nil cache for positive size", cfg)
	}
	return c
}

func TestNilCacheIsDisabled(t *testing.T) {
	c, err := New(Config{SizePages: 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c != nil {
		t.Fatalf("size 0 should return a nil cache")
	}
	if c.Enabled() {
		t.Errorf("nil cache reports enabled")
	}
	if c.Lookup(1, 1) {
		t.Errorf("nil cache hit")
	}
	if abs, fl := c.Write(1, 1); abs || fl != nil {
		t.Errorf("nil cache absorbed a write")
	}
	if fl := c.FillRead(1, 1); fl != nil {
		t.Errorf("nil cache filled")
	}
	if got := c.FlushAll(); got != nil {
		t.Errorf("nil cache flushed %v", got)
	}
	if c.Stats() != (Stats{}) {
		t.Errorf("nil cache has stats")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{SizePages: 4, Policy: "clock"}); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("bad policy: got %v", err)
	}
	if _, err := ParseMode("sideways"); !errors.Is(err, ErrBadMode) {
		t.Errorf("bad mode: got %v", err)
	}
	for s, want := range map[string]Mode{"": WriteThrough, "through": WriteThrough, "back": WriteBack, "wb": WriteBack} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mustNew(t, Config{SizePages: 3, Policy: PolicyLRU})
	c.FillRead(1, 1)
	c.FillRead(2, 1)
	c.FillRead(3, 1)
	if !c.Lookup(1, 1) { // 1 becomes MRU; LRU order now 2, 3, 1
		t.Fatalf("expected hit on 1")
	}
	c.FillRead(4, 1) // evicts 2
	if c.Lookup(2, 1) {
		t.Errorf("2 should have been evicted")
	}
	if !c.Lookup(3, 1) || !c.Lookup(1, 1) || !c.Lookup(4, 1) {
		t.Errorf("3, 1, 4 should be resident")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.DirtyEvictions != 0 {
		t.Errorf("evictions = %d/%d, want 1/0", st.Evictions, st.DirtyEvictions)
	}
}

func TestMultiPagePartialHit(t *testing.T) {
	c := mustNew(t, Config{SizePages: 8})
	c.FillRead(10, 2) // pages 10, 11
	if !c.Lookup(10, 2) {
		t.Fatalf("full extent should hit")
	}
	if c.Lookup(10, 3) { // page 12 missing
		t.Fatalf("partial extent must miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.PartialHits != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 partial", st)
	}
}

func TestWriteThroughRefreshesButNeverAbsorbs(t *testing.T) {
	c := mustNew(t, Config{SizePages: 4, Mode: WriteThrough})
	c.FillRead(1, 1)
	abs, flush := c.Write(1, 1)
	if abs || len(flush) != 0 {
		t.Fatalf("write-through absorbed a write")
	}
	abs, _ = c.Write(9, 1) // miss: no write-allocate
	if abs || c.Len() != 1 {
		t.Fatalf("write-through allocated on a write miss (len %d)", c.Len())
	}
	if got := c.FlushAll(); len(got) != 0 {
		t.Fatalf("write-through holds dirty pages: %v", got)
	}
	st := c.Stats()
	if st.WriteHits != 1 || st.WriteAllocs != 0 {
		t.Errorf("stats = %+v, want 1 write hit, 0 allocs", st)
	}
}

func TestWriteBackDirtyEvictionAndFlush(t *testing.T) {
	c := mustNew(t, Config{SizePages: 2, Mode: WriteBack})
	abs, flush := c.Write(1, 1)
	if !abs || len(flush) != 0 {
		t.Fatalf("write-back should absorb")
	}
	c.Write(2, 1)
	_, flush = c.Write(3, 1) // evicts dirty page 1
	if !reflect.DeepEqual(flush, []int64{1}) {
		t.Fatalf("dirty eviction flush = %v, want [1]", flush)
	}
	got := c.FlushAll()
	if !reflect.DeepEqual(got, []int64{2, 3}) {
		t.Fatalf("FlushAll = %v, want [2 3] (ascending)", got)
	}
	if again := c.FlushAll(); len(again) != 0 {
		t.Fatalf("second FlushAll returned %v", again)
	}
	st := c.Stats()
	if st.DirtyEvictions != 1 || st.FlushedPages != 2 || st.WriteAllocs != 3 {
		t.Errorf("stats = %+v, want 1 dirty eviction, 2 flushed, 3 allocs", st)
	}
}

func TestWriteBackHitMarksDirty(t *testing.T) {
	c := mustNew(t, Config{SizePages: 4, Mode: WriteBack})
	c.FillRead(5, 1) // resident clean
	abs, _ := c.Write(5, 1)
	if !abs {
		t.Fatalf("write-back should absorb a write hit")
	}
	if got := c.FlushAll(); !reflect.DeepEqual(got, []int64{5}) {
		t.Fatalf("FlushAll = %v, want [5]", got)
	}
}

func TestTwoQScanResistance(t *testing.T) {
	// Promote a hot pair into Am by cycling it through probation (ghost
	// re-reference), then scan a long cold range: the hot set must
	// survive. Capacity 8 -> Kin 2, ghosts 4. Ghosts only form under
	// eviction pressure, so the cache is filled to capacity first.
	c := mustNew(t, Config{SizePages: 8, Policy: Policy2Q})
	for lpn := int64(1); lpn <= 8; lpn++ {
		c.FillRead(lpn, 1) // fill probation to capacity
	}
	c.FillRead(9, 1) // evicts 1 from probation, leaving its ghost
	c.FillRead(1, 1) // ghost hit: 1 promotes into Am
	c.FillRead(10, 1)
	c.FillRead(2, 1) // same dance for 2
	if !c.Lookup(1, 1) || !c.Lookup(2, 1) {
		t.Fatalf("promoted pages should be resident")
	}
	// One-pass scan of 64 cold pages: churns probation only.
	for lpn := int64(1000); lpn < 1064; lpn++ {
		c.FillRead(lpn, 1)
	}
	if !c.Lookup(1, 1) || !c.Lookup(2, 1) {
		t.Errorf("2Q let a scan evict the hot set")
	}
	// LRU, by contrast, loses the hot pair to the same scan — the
	// property 2Q buys. (Sanity-check the baseline so the test means
	// something.)
	l := mustNew(t, Config{SizePages: 8, Policy: PolicyLRU})
	l.FillRead(1, 1)
	l.FillRead(2, 1)
	for lpn := int64(1000); lpn < 1064; lpn++ {
		l.FillRead(lpn, 1)
	}
	if l.Lookup(1, 1) || l.Lookup(2, 1) {
		t.Errorf("LRU unexpectedly survived the scan; baseline invalid")
	}
}

func TestTwoQGhostPromotion(t *testing.T) {
	c := mustNew(t, Config{SizePages: 4, Policy: Policy2Q}) // Kin 1, ghosts 2
	for lpn := int64(1); lpn <= 4; lpn++ {
		c.FillRead(lpn, 1) // fill to capacity
	}
	c.FillRead(5, 1) // probation over its share: evicts 1, ghost forms
	if c.Lookup(1, 1) {
		t.Fatalf("1 should have been evicted from probation")
	}
	c.FillRead(1, 1) // ghost hit -> straight into Am
	// Cold fill: victims keep coming from probation while it is over
	// its share, so the Am page outlives every cold page.
	for lpn := int64(50); lpn < 58; lpn++ {
		c.FillRead(lpn, 1)
	}
	if !c.Lookup(1, 1) {
		t.Errorf("ghost-promoted page was evicted before cold probation pages")
	}
}

func TestInvalidateDropsDirtyData(t *testing.T) {
	for _, pol := range []string{PolicyLRU, Policy2Q} {
		c := mustNew(t, Config{SizePages: 4, Policy: pol, Mode: WriteBack})
		c.Write(7, 1)
		c.Invalidate(7)
		if c.Lookup(7, 1) {
			t.Errorf("%s: invalidated page still resident", pol)
		}
		if got := c.FlushAll(); len(got) != 0 {
			t.Errorf("%s: invalidated dirty page still flushes: %v", pol, got)
		}
	}
}

// TestDeterministicReplay feeds an identical pseudo-random request
// sequence to two instances and requires identical hit/miss/eviction
// accounting and identical flush sequences — the property fleet
// determinism rests on.
func TestDeterministicReplay(t *testing.T) {
	for _, pol := range []string{PolicyLRU, Policy2Q} {
		for _, mode := range []Mode{WriteThrough, WriteBack} {
			run := func() (Stats, []int64) {
				c := mustNew(t, Config{SizePages: 64, Policy: pol, Mode: mode})
				var flushes []int64
				state := uint64(12345)
				next := func() uint64 {
					state = state*6364136223846793005 + 1442695040888963407
					return state >> 33
				}
				for i := 0; i < 5000; i++ {
					lpn := int64(next() % 256)
					pages := int(next()%3) + 1
					if next()%2 == 0 {
						if !c.Lookup(lpn, pages) {
							flushes = append(flushes, c.FillRead(lpn, pages)...)
						}
					} else {
						_, fl := c.Write(lpn, pages)
						flushes = append(flushes, fl...)
					}
				}
				flushes = append(flushes, c.FlushAll()...)
				return c.Stats(), flushes
			}
			s1, f1 := run()
			s2, f2 := run()
			if s1 != s2 {
				t.Errorf("%s/%s: stats diverged: %+v vs %+v", pol, mode, s1, s2)
			}
			if !reflect.DeepEqual(f1, f2) {
				t.Errorf("%s/%s: flush sequences diverged (%d vs %d entries)", pol, mode, len(f1), len(f2))
			}
		}
	}
}

// TestCapacityNeverExceeded drives every policy past capacity and
// checks the resident count honors the bound.
func TestCapacityNeverExceeded(t *testing.T) {
	for _, pol := range []string{PolicyLRU, Policy2Q} {
		c := mustNew(t, Config{SizePages: 16, Policy: pol, Mode: WriteBack})
		for lpn := int64(0); lpn < 400; lpn++ {
			c.Write(lpn, 1)
			if c.Len() > 16 {
				t.Fatalf("%s: resident %d > capacity 16", pol, c.Len())
			}
		}
	}
}

// TestSlabMatchesReference drives the slab cache and the container/list
// reference (reference_test.go) with the same 100 k seeded steps and
// requires every return value, Len and Stats to agree after each one:
// hit, miss, eviction and flush order are what fleet's pinned reports
// rest on. Small capacities keep eviction, ghost promotion and ghost
// trimming constant; the address range is a few times the capacity so
// hits stay common too.
func TestSlabMatchesReference(t *testing.T) {
	for _, pol := range []string{PolicyLRU, Policy2Q} {
		for _, mode := range []Mode{WriteThrough, WriteBack} {
			for _, size := range []int{1, 3, 64} {
				cfg := Config{SizePages: size, Policy: pol, Mode: mode}
				c := mustNew(t, cfg)
				ref, err := newRefCache(cfg)
				if err != nil {
					t.Fatal(err)
				}
				src := rng.New(uint64(size)*31 + uint64(mode))
				span := int64(size)*4 + 8
				for step := 0; step < 100_000; step++ {
					lpn, pages := int64(src.Intn(int(span))), 1+src.Intn(4)
					var got, want any
					switch k := src.Intn(100); {
					case k < 40:
						got, want = c.Lookup(lpn, pages), ref.Lookup(lpn, pages)
					case k < 65:
						got, want = fmt.Sprint(c.FillRead(lpn, pages)), fmt.Sprint(ref.FillRead(lpn, pages))
					case k < 93:
						ga, gf := c.Write(lpn, pages)
						wa, wf := ref.Write(lpn, pages)
						got, want = fmt.Sprint(ga, gf), fmt.Sprint(wa, wf)
					case k < 99:
						c.Invalidate(lpn)
						ref.Invalidate(lpn)
					default:
						got, want = fmt.Sprint(c.FlushAll()), fmt.Sprint(ref.FlushAll())
					}
					if got != want || c.Len() != ref.Len() || c.Stats() != ref.Stats() {
						t.Fatalf("%s/%s/%d: step %d (lpn %d, %d pages): got %v, reference %v; Len %d vs %d; Stats %+v vs %+v",
							pol, mode, size, step, lpn, pages, got, want, c.Len(), ref.Len(), c.Stats(), ref.Stats())
					}
				}
				if got, want := fmt.Sprint(c.FlushAll()), fmt.Sprint(ref.FlushAll()); got != want {
					t.Fatalf("%s/%s/%d: final flush %s, reference %s", pol, mode, size, got, want)
				}
			}
		}
	}
}

// A warmed cache allocates nothing: every page it will ever know about
// has its node already, and evictions are handed out in a slice the
// cache keeps.
func TestCacheAllocs(t *testing.T) {
	for _, pol := range []string{PolicyLRU, Policy2Q} {
		c := mustNew(t, Config{SizePages: 256, Policy: pol, Mode: WriteBack})
		src := rng.New(9)
		step := func() {
			lpn, pages := int64(src.Intn(2048)), 1+src.Intn(3)
			if src.Intn(2) == 0 {
				if !c.Lookup(lpn, pages) {
					c.FillRead(lpn, pages)
				}
			} else {
				c.Write(lpn, pages)
			}
		}
		for i := 0; i < 20_000; i++ {
			step()
		}
		before := c.Stats()
		if n := testing.AllocsPerRun(20_000, step); n != 0 {
			t.Errorf("%s: %v allocations per request on a warmed cache, want 0", pol, n)
		}
		if d := c.Stats(); d.Hits == before.Hits || d.DirtyEvictions == before.DirtyEvictions || d.Misses == before.Misses {
			t.Errorf("%s: the measured window missed a path: %+v -> %+v", pol, before, d)
		}
	}
}
