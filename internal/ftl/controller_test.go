package ftl

import (
	"reflect"
	"slices"
	"testing"

	"cubeftl/internal/metrics"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/vth"
)

// testDevice builds a small SSD for controller tests: 2 chips, 24
// blocks, 8 layers — enough for GC to engage quickly.
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

func testController(t *testing.T, pol Policy) (*sim.Engine, *Controller) {
	t.Helper()
	eng, dev := testDevice(7)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	return eng, NewController(dev, pol, cfg)
}

// mountState is the controller's durable state as a mount takes it: what
// a checkpoint captures.
func (c *Controller) mountState() MountState {
	ms := MountState{
		LastStamp:    c.writeStamp,
		LastBlockSeq: c.blockSeq,
		L2P:          slices.Clone(c.mapper.forward),
		Stamps:       slices.Clone(c.stamps),
		Free:         make([][]int, c.geo.Chips),
		Actives:      make([][]ActiveRecord, c.geo.Chips),
		Retired:      make([][]int, c.geo.Chips),
		DegradedDies: make([]bool, c.geo.Chips),
	}
	for chip := 0; chip < c.geo.Chips; chip++ {
		ms.Free[chip] = append([]int(nil), c.dies[chip].free...)
		ms.Actives[chip] = c.AppendActives(nil, chip)
		ms.Retired[chip] = c.AppendRetired(nil, chip)
		ms.DegradedDies[chip] = c.dies[chip].degraded
	}
	return ms
}

func TestControllerWriteReadRoundTrip(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	writesDone, readsDone := 0, 0
	for lpn := LPN(0); lpn < 12; lpn++ {
		c.Write(lpn, nil, func() { writesDone++ })
	}
	eng.Run()
	if writesDone != 12 {
		t.Fatalf("writes done = %d", writesDone)
	}
	if !c.Drained() {
		t.Fatal("controller not drained after run")
	}
	// All 12 pages must be mapped (flushed out of the buffer).
	for lpn := LPN(0); lpn < 12; lpn++ {
		if c.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
			t.Fatalf("LPN %d not mapped after drain", lpn)
		}
	}
	for lpn := LPN(0); lpn < 12; lpn++ {
		c.Read(lpn, nil, func() { readsDone++ })
	}
	eng.Run()
	if readsDone != 12 {
		t.Fatalf("reads done = %d", readsDone)
	}
	st := c.Stats()
	if st.HostWrites != 12 || st.HostReads != 12 {
		t.Errorf("stats = %+v", st)
	}
	if st.ReadLat.N() != 12 || st.WriteLat.N() != 12 {
		t.Error("latency histograms incomplete")
	}
}

func TestControllerUnmappedRead(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	done := false
	c.Read(999, nil, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("unmapped read never completed")
	}
	if c.Stats().UnmappedReads != 1 {
		t.Error("unmapped read not counted")
	}
}

func TestControllerBufferHit(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.Write(5, nil, func() {})
	// Read immediately — the page is still buffered.
	c.Read(5, nil, func() {})
	eng.Run()
	if c.Stats().BufferHits != 1 {
		t.Errorf("buffer hits = %d", c.Stats().BufferHits)
	}
}

func TestControllerOverwriteInvalidatesOldPage(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	for round := 0; round < 3; round++ {
		for lpn := LPN(0); lpn < 12; lpn++ {
			c.Write(lpn, nil, func() {})
		}
		eng.Run()
	}
	// Exactly 12 pages live; everything else programmed is invalid.
	live := 0
	for chip := 0; chip < 2; chip++ {
		for b := 0; b < 24; b++ {
			live += c.Mapper().ValidCount(chip, b)
		}
	}
	if live != 12 {
		t.Errorf("live pages = %d, want 12", live)
	}
}

// Fill the device well past one block per chip and overwrite heavily:
// GC must engage and the controller must stay consistent.
func TestControllerGarbageCollection(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	logical := c.LogicalPages()
	// Use 60% of logical space, overwritten several times.
	n := logical * 6 / 10
	src := rng.New(3)
	writes := n * 6
	done := 0
	var issue func()
	outstanding := 0
	issue = func() {
		for outstanding < 16 && writes > 0 {
			writes--
			outstanding++
			lpn := LPN(src.Intn(n))
			c.Write(lpn, nil, func() {
				outstanding--
				done++
				issue()
			})
		}
	}
	issue()
	eng.Run()
	if done != n*6 {
		t.Fatalf("completed %d of %d writes", done, n*6)
	}
	st := c.Stats()
	if st.GCCount == 0 {
		t.Error("GC never ran despite heavy overwrites")
	}
	if !c.Drained() {
		t.Error("not drained")
	}
	// Consistency: every distinct written LPN maps somewhere, and the
	// total valid count equals the number of distinct LPNs.
	live := 0
	for chip := 0; chip < 2; chip++ {
		for b := 0; b < 24; b++ {
			live += c.Mapper().ValidCount(chip, b)
		}
	}
	distinct := 0
	for lpn := LPN(0); lpn < LPN(n); lpn++ {
		if c.Mapper().Lookup(lpn) != ssd.UnmappedPPN {
			distinct++
		}
	}
	if live != distinct {
		t.Errorf("valid-count total %d != mapped LPNs %d", live, distinct)
	}
	t.Logf("GC runs=%d moves=%d programs=%d", st.GCCount, st.GCPageMoves, st.Programs)
}

func TestControllerBackpressure(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	// Slam 200 distinct writes at once into a 32-page buffer.
	done := 0
	for lpn := LPN(0); lpn < 200; lpn++ {
		c.Write(lpn, nil, func() { done++ })
	}
	eng.Run()
	if done != 200 {
		t.Fatalf("done = %d", done)
	}
	// Some writes must have seen real backpressure latency.
	if c.Stats().WriteLat.Max() < 100_000 {
		t.Errorf("max write latency %d ns — no backpressure observed", c.Stats().WriteLat.Max())
	}
}

func TestVertFTLFasterMeanTPROGThanPage(t *testing.T) {
	run := func(pol Policy) float64 {
		eng, dev := testDevice(11)
		cfg := DefaultControllerConfig()
		cfg.WriteBufferPages = 32
		c := NewController(dev, pol, cfg)
		for lpn := LPN(0); lpn < 300; lpn++ {
			c.Write(lpn%120, nil, func() {})
		}
		eng.Run()
		return c.Stats().MeanTPROGNs()
	}
	page := run(NewPagePolicy())
	vert := run(NewVertPolicy())
	if vert >= page {
		t.Fatalf("vertFTL mean tPROG %.0f >= pageFTL %.0f", vert, page)
	}
	red := 1 - vert/page
	if red < 0.04 || red > 0.13 {
		t.Errorf("vertFTL tPROG reduction = %.3f, want ~0.08", red)
	}
}

func TestPartialFlushTimeout(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.Write(3, nil, func() {}) // a single page: less than a word line
	eng.Run()
	if c.Mapper().Lookup(3) == ssd.UnmappedPPN {
		t.Fatal("trickle write never flushed")
	}
	if c.Stats().Padded == 0 {
		t.Error("padding not accounted")
	}
}

// The flush timer must repeatedly clear trickle writes (each below one
// word-line group) and its timeout must bound the mapping delay.
func TestFlushTimeoutTrickleWrites(t *testing.T) {
	eng, dev := testDevice(19)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := NewController(dev, NewPagePolicy(), cfg)

	// Three rounds of single-page writes, each drained separately: every
	// round needs its own timer-driven partial flush.
	for round := 0; round < 3; round++ {
		lpn := LPN(round)
		start := eng.Now()
		c.Write(lpn, nil, func() {})
		eng.Run()
		if c.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
			t.Fatalf("round %d: trickle write never flushed", round)
		}
		if elapsed := eng.Now() - start; elapsed < FlushTimeoutNs {
			t.Errorf("round %d: flushed after %d ns, before the %d ns timeout",
				round, elapsed, FlushTimeoutNs)
		}
	}
	// Each 1-page group was padded to a full word line.
	if c.Stats().Padded != 3*int64(vth.PagesPerWL-1) {
		t.Errorf("Padded = %d, want %d", c.Stats().Padded, 3*(vth.PagesPerWL-1))
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
}

// Read-disturb reclaim: hammering one block past the chip's disturb
// budget relocates it, and the erase restarts its read counter.
func TestReadDisturbReclaimToggle(t *testing.T) {
	eng, dev := testDevice(13)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := NewController(dev, NewPagePolicy(), cfg)
	// Fill several blocks so LPN 0's home rotates out of the active
	// set (active blocks are exempt from reclaim).
	perBlock := dev.Geometry().PagesPerBlock()
	for lpn := LPN(0); lpn < LPN(5*perBlock); lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	// Hammer LPN 0 past the disturb budget.
	total := nand.ReadDisturbBudget + 64
	issued, outstanding := 0, 0
	var pump func()
	pump = func() {
		for outstanding < 32 && issued < total {
			issued++
			outstanding++
			c.Read(0, nil, func() { outstanding--; pump() })
		}
	}
	pump()
	eng.Run()
	if c.Stats().Reclaims == 0 {
		t.Error("reclaim never fired past the disturb budget")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Error(err)
	}
	// The reclaimed block was erased: its read counter restarted.
	chip, block, _, _, _ := c.Device().Geometry().DecodePPN(c.Mapper().Lookup(0))
	if reads := c.Device().Die(chip).NAND.BlockReads(block); reads >= nand.ReadDisturbBudget {
		t.Errorf("LPN 0's block still has %d reads after reclaim", reads)
	}
}

// A zero WriteBufferPages takes the default capacity and nothing else:
// the constructors used to replace the whole config with the defaults,
// silently dropping the caller's retry mode, durable acks and lifetime
// switches. Both init paths share newController, so both are checked.
func TestControllerKeepsConfigWhenBufferDefaults(t *testing.T) {
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages, cfg.DurableAcks, cfg.RetryMode = 0, true, nand.RetryPipelined
	_, dev := testDevice(7)
	fresh := NewController(dev, NewPagePolicy(), cfg)
	_, dev2 := testDevice(7)
	mounted, err := NewControllerWithState(dev2, NewPagePolicy(), cfg, fresh.mountState())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Controller{"fresh": fresh, "mounted": mounted} {
		if !c.cfg.DurableAcks || c.cfg.RetryMode != nand.RetryPipelined {
			t.Errorf("%s: config dropped: DurableAcks=%v RetryMode=%v", name, c.cfg.DurableAcks, c.cfg.RetryMode)
		}
		if got, want := c.buf.Capacity(), DefaultControllerConfig().WriteBufferPages; got != want {
			t.Errorf("%s: write buffer holds %d pages, want the default %d", name, got, want)
		}
	}
}

// ResetStats zeroes every number of the ledger except the three that
// describe the device rather than the window: bad blocks and degraded
// dies are still gone. One loop over the walk, so a field added to
// Stats is covered the day it is added.
func TestResetStatsZeroesTheLedger(t *testing.T) {
	_, c := testController(t, NewPagePolicy())
	survives := map[string]bool{"RetiredBlocks": true, "FactoryBadBlocks": true, "DegradedDies": true}
	fields := reflect.ValueOf(c.Stats()).Elem()
	rows := metrics.Walk(c.Stats())
	for i, row := range rows {
		fields.FieldByName(row.Field).SetInt(int64(i + 1))
	}
	c.Stats().ReadLat.Add(5)
	c.ResetStats()
	for i, row := range rows {
		want := 0.0
		if survives[row.Field] {
			want = float64(i + 1)
		}
		if got := row.Get(); got != want {
			t.Errorf("%s = %v after ResetStats, want %v", row.Field, got, want)
		}
	}
	if len(rows) != fields.NumField()-2 || c.Stats().ReadLat.N() != 0 {
		t.Errorf("walk covers %d of %d fields (all but the two histograms), read histogram holds %d samples",
			len(rows), fields.NumField(), c.Stats().ReadLat.N())
	}
}

// retireWatch is a policy that fails the test if the controller retires
// a block with the policy before the last program into it completed: it
// must not observe a program of a block it has been told is closed.
type retireWatch struct {
	Policy
	t       *testing.T
	closed  map[[2]int]bool
	retired int
}

func (p *retireWatch) ObserveProgram(chip, block, layer, wl int, params nand.ProgramParams, res *nand.ProgramResult) ProgramVerdict {
	if p.closed[[2]int{chip, block}] {
		p.t.Fatalf("chip %d block %d: program of (%d,%d) completed after the block was retired", chip, block, layer, wl)
	}
	return p.Policy.ObserveProgram(chip, block, layer, wl, params, res)
}

func (p *retireWatch) BlockRetired(chip, block int) {
	p.closed[[2]int{chip, block}] = true
	p.retired++
	p.Policy.BlockRetired(chip, block)
}

func (p *retireWatch) BlockErased(chip, block int) {
	delete(p.closed, [2]int{chip, block})
	p.Policy.BlockErased(chip, block)
}

// A block is retired with the policy only once its last program — host
// flush or relocation — has completed, although an ack that frees a
// buffer slot re-enters Write and can issue the block's last word line
// from inside the completion of the one before it.
func TestBlockRetiredAfterItsLastProgram(t *testing.T) {
	pol := &retireWatch{Policy: NewPagePolicy(), t: t, closed: map[[2]int]bool{}}
	eng, c := testController(t, pol)
	n, writes, outstanding := c.LogicalPages()*6/10, c.LogicalPages()*3, 0
	src := rng.New(11)
	var issue func()
	issue = func() {
		for outstanding < 16 && writes > 0 {
			writes--
			outstanding++
			c.Write(LPN(src.Intn(n)), nil, func() { outstanding--; issue() })
		}
	}
	issue()
	eng.Run()
	if st := c.Stats(); st.GCCount == 0 || pol.retired < 40 {
		t.Fatalf("%d GC cycles, %d blocks retired: the run closed too few blocks", st.GCCount, pol.retired)
	}
}
