package ftl

import (
	"strings"
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/vth"
)

// relocRig is a small device with a few closed blocks of data per die
// and nothing in flight. target is the closed block holding LPN 0, with
// a few of its pages trimmed so that it is its die's greediest victim
// and its live-page count is not a multiple of a word line.
type relocRig struct {
	eng         *sim.Engine
	c           *Controller
	chip, block int
	live        int
}

func newRelocRig(t *testing.T, tune func(*ControllerConfig)) *relocRig {
	t.Helper()
	eng, dev := testDevice(7)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	if tune != nil {
		tune(&cfg)
	}
	c := NewController(dev, NewPagePolicy(), cfg)
	for lpn := LPN(0); lpn < 600; lpn++ {
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	chip, block, _, _, _ := dev.Geometry().DecodePPN(c.Mapper().Lookup(0))
	if c.role(chip, block) != roleData {
		t.Fatalf("LPN 0's block %d/%d has role %d, want a closed block", chip, block, c.role(chip, block))
	}
	lpns := c.Mapper().LivePages(chip, block)
	for _, lpn := range lpns[1:5] {
		c.Trim(lpn, nil)
	}
	return &relocRig{eng: eng, c: c, chip: chip, block: block, live: len(lpns) - 4}
}

// forceGC opens one GC cycle on the die as if its pool had just run low
// (and not the chain of them a pool that stays low would get).
func (c *Controller) forceGC(chip int) {
	low := c.cfg.GCFreeBlocksLow
	c.cfg.GCFreeBlocksLow = c.geo.BlocksPerChip
	c.checkGC(chip)
	c.cfg.GCFreeBlocksLow = low
}

func (r *relocRig) settle() {
	r.eng.RunWhile(func() bool { return r.c.GCActiveAny() || !r.c.Drained() })
}

// Every cause reaches the relocator through its own source and leaves
// its own marks: one cycle on its counter and on nobody else's, the
// programs on its column of the WAF ledger, one window under its tag,
// the victim emptied and re-pooled (or, retired, left behind), and a
// consistent controller.
func TestRelocatorCauses(t *testing.T) { relocatorCauses(t) }

// The same with every free list capped at one record, so a batch record
// stepped after its release trips the liveness check.
func TestRelocatorCausesRecycledRecords(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	relocatorCauses(t)
}

func relocatorCauses(t *testing.T) {
	cases := []struct {
		cause   relocCause
		tune    func(*ControllerConfig)
		trigger func(t *testing.T, r *relocRig)
	}{
		{causeGC, nil, func(t *testing.T, r *relocRig) { r.c.forceGC(r.chip) }},
		{causeReclaim, nil, func(t *testing.T, r *relocRig) {
			for i := 0; i < nand.ReadDisturbBudget*11/10; i += 2000 {
				for j := 0; j < 2000; j++ {
					r.c.Read(0, nil, func() {})
				}
				r.eng.Run()
			}
		}},
		{causeEvacuate, nil, func(t *testing.T, r *relocRig) {
			if !r.c.GrowBadBlock(r.chip, r.block) {
				t.Fatal("GrowBadBlock refused a closed block on an idle die")
			}
		}},
		{causeRefresh, func(cfg *ControllerConfig) { cfg.Refresh = true }, func(t *testing.T, r *relocRig) {
			r.c.dev.Die(r.chip).NAND.AdvanceRetention(r.block, 12)
			if n := r.c.ScrubSweep(); n != 1 {
				t.Fatalf("ScrubSweep queued %d blocks, want the one aged block", n)
			}
		}},
		{causeWearLevel, func(cfg *ControllerConfig) { cfg.WearLevel = true }, func(t *testing.T, r *relocRig) {
			n := r.c.dev.Die(r.chip).NAND
			n.AddPECycles(r.c.dies[r.chip].free[0], 200) // a spread past the policy's 64
			n.AddPECycles(r.block, -n.PECycles(r.block))
			for b, role := range r.c.chipRoles(r.chip) {
				if role == roleData && b != r.block {
					n.AddPECycles(b, 1) // the target is the coldest closed block
				}
			}
			r.c.maybeWearLevel(r.chip)
		}},
	}
	names := [numCauses]string{"gc", "reclaim", "evacuate", "refresh", "wearLevel"}
	for _, tc := range cases {
		t.Run(names[tc.cause], func(t *testing.T) {
			r := newRelocRig(t, tc.tune)
			c := r.c
			before := *c.Stats()
			tc.trigger(t, r)
			r.settle()
			after := *c.Stats()

			for cause := relocCause(0); cause < numCauses; cause++ {
				b, _ := before.relocColumns(cause)
				a, _ := after.relocColumns(cause)
				want := int64(0)
				if cause == tc.cause {
					want = 1
				}
				if *a-*b != want {
					t.Errorf("%s cycles moved by %d, want %d", names[cause], *a-*b, want)
				}
			}
			wls := int64((r.live + vth.PagesPerWL - 1) / vth.PagesPerWL)
			moved := map[*int64]int64{}
			_, col := after.relocColumns(tc.cause)
			moved[col] = wls * vth.PagesPerWL
			for _, p := range []struct {
				name          string
				before, after *int64
			}{
				{"GCPages", &before.GCPages, &after.GCPages},
				{"RefreshPages", &before.RefreshPages, &after.RefreshPages},
				{"WLPages", &before.WLPages, &after.WLPages},
				{"HostPages", &before.HostPages, &after.HostPages},
			} {
				if got := *p.after - *p.before; got != moved[p.after] {
					t.Errorf("%s moved by %d, want %d", p.name, got, moved[p.after])
				}
			}
			if got := after.GCPageMoves - before.GCPageMoves; got != int64(r.live) {
				t.Errorf("%d pages moved, want the victim's %d live ones", got, r.live)
			}
			if got := after.Programs - before.Programs; got != wls {
				t.Errorf("%d programs, want %d", got, wls)
			}

			if c.GCActiveAny() {
				t.Errorf("the %s cycle is still open after the device settled", names[tc.cause])
			}

			wantRole := roleFree
			if tc.cause == causeEvacuate {
				wantRole = roleRetired
			}
			if got := c.role(r.chip, r.block); got != wantRole {
				t.Errorf("victim's role is %d afterwards, want %d", got, wantRole)
			}
			if v := c.mapper.ValidCount(r.chip, r.block); v != 0 {
				t.Errorf("victim still holds %d live pages", v)
			}
			if c.mappedIn(0, r.chip, r.block) || c.Mapper().Lookup(0) == ssd.UnmappedPPN {
				t.Error("LPN 0 was not moved out of the victim")
			}
			if err := c.CheckConsistency(); err != nil {
				t.Error(err)
			}
		})
	}
}

// A cause the die does not admit opens nothing: a second cycle on a busy
// die, GC or a voluntary move on a degraded one, a voluntary move off the
// last free block. An evacuation is refused only by a running cycle.
func TestRelocatorAdmission(t *testing.T) {
	r := newRelocRig(t, nil)
	d := &r.c.dies[r.chip]
	admitted := func() (out [numCauses]bool) {
		for cause := range out {
			out[cause] = d.admits(relocCause(cause))
		}
		return out
	}
	if got := admitted(); got != [numCauses]bool{true, true, true, true, true} {
		t.Errorf("idle die admits %v", got)
	}
	free := d.free
	d.free = free[:1]
	if got := admitted(); got != [numCauses]bool{true, false, true, false, false} {
		t.Errorf("die on its last free block admits %v", got)
	}
	d.free = free
	d.degraded = true
	if got := admitted(); got != [numCauses]bool{false, false, true, false, false} {
		t.Errorf("degraded die admits %v", got)
	}
	d.degraded = false
	if !r.c.startReloc(r.chip, r.block, causeGC) {
		t.Fatal("startReloc refused an idle die")
	}
	if got := admitted(); got != [numCauses]bool{} {
		t.Errorf("busy die admits %v", got)
	}
	cycles := r.c.Stats().GCCount
	if r.c.startReloc(r.chip, r.block, causeGC) || r.c.Stats().GCCount != cycles {
		t.Error("a second cycle opened on a busy die")
	}
	r.settle()
	if err := r.c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// inlineHook is a recovery hook whose barriers are already durable.
type inlineHook struct{}

func (inlineHook) NoteBlockOpened(int, int, uint64)      {}
func (inlineHook) NoteMapped(LPN, uint64)                {}
func (inlineHook) NoteTrim(LPN, uint64)                  {}
func (inlineHook) NoteRetired(int, int)                  {}
func (inlineHook) NoteDieDegraded(int)                   {}
func (inlineHook) BarrierErase(_, _ int, proceed func()) { proceed() }
func (inlineHook) NoteErased(_, _ int, proceed func())   { proceed() }

// One whole GC cycle — trigger, victim choice, batches, erase barrier,
// erase, re-pool — allocates the victim's LivePages slice and nothing
// else, with and without a recovery hook. (A write point that fills
// mid-cycle adds its cursor, once per block life; the victims here are
// small enough that none does.)
func TestGCCycleAllocs(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		eng, dev := testDevice(7)
		cfg := DefaultControllerConfig()
		cfg.WriteBufferPages = 32
		cfg.DurableAcks = hooked
		c := NewController(dev, NewPagePolicy(), cfg)
		if hooked {
			c.SetRecovery(inlineHook{})
		}
		// Fill closed blocks on every die, then trim all but the first six
		// pages of each: every GC cycle moves two word lines.
		geo := dev.Geometry()
		for lpn := LPN(0); lpn < LPN(12*geo.PagesPerBlock()); lpn++ {
			c.Write(lpn, nil, func() {})
		}
		eng.Run()
		for chip := 0; chip < geo.Chips; chip++ {
			for b := 0; b < geo.BlocksPerChip; b++ {
				if lpns := c.Mapper().LivePages(chip, b); len(lpns) > 6 {
					for _, lpn := range lpns[6:] {
						c.Trim(lpn, nil)
					}
				}
			}
		}
		eng.Run()
		const runs = 4
		before := *c.Stats()
		n := testing.AllocsPerRun(runs, func() {
			c.forceGC(0)
			eng.Run()
		})
		st := c.Stats()
		if got := st.GCCount - before.GCCount; got != runs+1 { // AllocsPerRun makes one warm-up call
			t.Fatalf("hooked=%v: %d GC cycles, want %d", hooked, got, runs+1)
		}
		if got := st.GCPageMoves - before.GCPageMoves; got != 6*(runs+1) {
			t.Fatalf("hooked=%v: %d pages moved, want %d", hooked, got, 6*(runs+1))
		}
		if n > 1 {
			t.Errorf("hooked=%v: a GC cycle allocates %v objects, want at most its LivePages slice", hooked, n)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// pickChip's one scan chooses what the two scans it replaced chose —
// the first eligible idle die from the cursor, else the first eligible
// one — and leaves the cursor where they left it.
func TestPickChipMatchesTwoScans(t *testing.T) {
	eng := sim.NewEngine()
	cfg := ssd.DefaultConfig()
	cfg.Chip.Process.BlocksPerChip = 8
	cfg.Chip.Process.Layers = 4
	dev := ssd.New(eng, cfg)
	c := NewController(dev, NewPagePolicy(), DefaultControllerConfig())
	n := c.geo.Chips
	twoScans := func() (int, int, bool) {
		eligible := func(die int) bool {
			d := &c.dies[die]
			return !d.degraded && d.inflight < c.cfg.MaxInflightProgramsPerChip && len(d.free) > 1
		}
		for i := 0; i < n; i++ {
			if die := (c.flushChip + i) % n; eligible(die) && !c.dev.Die(die).Busy() {
				return die, (die + 1) % n, true
			}
		}
		for i := 0; i < n; i++ {
			if die := (c.flushChip + i) % n; eligible(die) {
				return die, (die + 1) % n, true
			}
		}
		return 0, c.flushChip, false
	}
	src := rng.New(11)
	pools := make([][]int, n)
	for die := range pools {
		pools[die] = c.dies[die].free
	}
	for trial := 0; trial < 2000; trial++ {
		if src.Intn(4) == 0 {
			eng.Run() // every die idle again
		}
		for die := 0; die < n; die++ {
			d := &c.dies[die]
			d.degraded = src.Intn(5) == 0
			d.inflight = src.Intn(2)
			d.free = pools[die][:src.Intn(3)]
			if src.Intn(3) == 0 {
				dev.Read(die, nand.Address{}, nand.ReadParams{}, nil, func(nand.ReadResult, error) {})
			}
		}
		c.flushChip = src.Intn(n)
		wantDie, wantCursor, wantOK := twoScans()
		die, ok := c.pickChip()
		if die != wantDie || ok != wantOK || c.flushChip != wantCursor {
			t.Fatalf("trial %d: pickChip = %d, %v (cursor %d), two scans give %d, %v (cursor %d)",
				trial, die, ok, c.flushChip, wantDie, wantOK, wantCursor)
		}
	}
}

// The role audit in CheckConsistency: a block whose role disagrees with
// the free list or the write points is reported, whichever way round.
func TestConsistencyAuditsRoles(t *testing.T) {
	r := newRelocRig(t, nil)
	c, d := r.c, &r.c.dies[r.chip]
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	expect := func(what, want string) {
		t.Helper()
		if err := c.CheckConsistency(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: CheckConsistency = %v, want an error containing %q", what, err, want)
		}
	}
	free, open := d.free[0], d.actives[0].Block
	c.setRole(r.chip, free, roleData)
	expect("listed free block in roleData", "by role")
	c.setRole(r.chip, free, roleFree)

	c.setRole(r.chip, r.block, roleFree)
	expect("closed block in roleFree", "by role")
	c.setRole(r.chip, r.block, roleData)

	c.setRole(r.chip, free, roleOpen)
	c.setRole(r.chip, open, roleFree)
	expect("free and open roles swapped", "free list has role")
	c.setRole(r.chip, free, roleFree)
	c.setRole(r.chip, open, roleOpen)

	c.setRole(r.chip, free, roleRetired)
	expect("retired block in the free list", "by role")
	c.setRole(r.chip, free, roleFree)

	d.free = append(d.free, d.free[0])
	expect("block listed free twice", "by role")
	d.free = d.free[:len(d.free)-1]
	if err := c.CheckConsistency(); err != nil {
		t.Fatalf("after restoring every role: %v", err)
	}
}

// A mount state naming a block the chip does not have is refused, not
// written into another chip's rows of the role table.
func TestMountRejectsBlocksOutOfRange(t *testing.T) {
	eng, dev := testDevice(7)
	fresh := NewController(dev, NewPagePolicy(), DefaultControllerConfig())
	for lpn := LPN(0); lpn < 64; lpn++ {
		fresh.Write(lpn, nil, func() {})
	}
	eng.Run()
	blocks := dev.Geometry().BlocksPerChip
	for name, spoil := range map[string]func(ms *MountState){
		"free":    func(ms *MountState) { ms.Free[0][0] = blocks },
		"retired": func(ms *MountState) { ms.Retired[1] = append(ms.Retired[1], -1) },
		"active":  func(ms *MountState) { ms.Actives[0][0].Block = blocks + 7 },
	} {
		ms := fresh.StateSnapshot()
		spoil(&ms)
		_, dev2 := testDevice(7)
		if _, err := NewControllerWithState(dev2, NewPagePolicy(), DefaultControllerConfig(), ms); err == nil {
			t.Errorf("%s list with a block out of range mounted", name)
		}
	}
	_, dev2 := testDevice(7)
	if _, err := NewControllerWithState(dev2, NewPagePolicy(), DefaultControllerConfig(), fresh.StateSnapshot()); err != nil {
		t.Fatalf("unspoiled state refused: %v", err)
	}
}
