package ftl

import (
	"slices"
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
	lpns := c.Mapper().AppendLivePages(nil, chip, block)
	for _, lpn := range lpns[1:5] {
		c.Trim(lpn, nil)
	}
	return &relocRig{eng: eng, c: c, chip: chip, block: block, live: len(lpns) - 4}
}

// forceGC opens one GC cycle on the die as if its pool had just run low:
// checkGC past its gcFreeBlocksLow test.
func (c *Controller) forceGC(chip int) {
	if !c.dies[chip].admits(causeGC) {
		return
	}
	if victim, ok := c.pickVictim(chip); ok {
		c.startReloc(chip, victim, causeGC)
	} else {
		c.settle(chip)
	}
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
// erase, re-pool — allocates nothing, with and without a recovery hook:
// the relocation set is refilled in the die's own slice, and a write
// point that fills mid-cycle would take a released cursor.
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
				if lpns := c.Mapper().AppendLivePages(nil, chip, b); len(lpns) > 6 {
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
		if n != 0 {
			t.Errorf("hooked=%v: a GC cycle allocates %v objects, want 0", hooked, n)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}

// pickChip's one scan chooses what the two scans it replaced chose —
// the first eligible idle die from the cursor, else the first eligible
// one — and leaves the cursor where they left it, also when every die is
// at the in-flight cap and it returns before scanning.
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
	allAtCap := 0
	for trial := 0; trial < 2000; trial++ {
		if src.Intn(4) == 0 {
			eng.Run() // every die idle again
		}
		c.inflight = 0
		for die := 0; die < n; die++ {
			d := &c.dies[die]
			d.degraded = src.Intn(5) == 0
			d.inflight = src.Intn(2)
			c.inflight += d.inflight
			d.free = pools[die][:src.Intn(3)]
			if src.Intn(3) == 0 {
				dev.Read(die, nand.Address{}, nand.ReadParams{}, nil, func(nand.ReadResult, error) {})
			}
		}
		if c.inflight == n*c.cfg.MaxInflightProgramsPerChip {
			allAtCap++
		}
		c.flushChip = src.Intn(n)
		wantDie, wantCursor, wantOK := twoScans()
		die, ok := c.pickChip()
		if die != wantDie || ok != wantOK || c.flushChip != wantCursor {
			t.Fatalf("trial %d: pickChip = %d, %v (cursor %d), two scans give %d, %v (cursor %d)",
				trial, die, ok, c.flushChip, wantDie, wantOK, wantCursor)
		}
	}
	if allAtCap == 0 {
		t.Error("no trial put every die at the in-flight cap")
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

// A mount state the device cannot hold is refused with an error, never
// a panic or a controller that fails CheckConsistency: a block the chip
// does not have (not written into another chip's rows of the role table)
// or one listed in two pools, and each mapping the adopting pass cannot
// take. Each mount is over a copy of the written media: the unspoiled
// mappings name pages it holds.
func TestMountRejectsStateTheDeviceCannotHold(t *testing.T) {
	eng, dev := testDevice(7)
	fresh := NewController(dev, NewPagePolicy(), DefaultControllerConfig())
	for lpn := LPN(0); lpn < 64; lpn++ {
		fresh.Write(lpn, nil, func() {})
	}
	eng.Run()
	written := func() *ssd.Device { return ssd.NewWithArray(sim.NewEngine(), dev.Config(), dev.Array().Clone()) }
	geo := dev.Geometry()
	blocks := geo.BlocksPerChip
	for name, c := range map[string]struct {
		spoil func(ms *MountState)
		want  string
	}{
		"free block out of range":    {func(ms *MountState) { ms.Free[0][0] = blocks }, "outside the chip"},
		"retired block out of range": {func(ms *MountState) { ms.Retired[1] = append(ms.Retired[1], -1) }, "outside chip 1"},
		"active block out of range":  {func(ms *MountState) { ms.Actives[0][0].Block = blocks + 7 }, "outside the chip"},
		"block in two pools":         {func(ms *MountState) { ms.Retired[0] = append(ms.Retired[0], ms.Free[0][0]) }, "two pools"},
		"LPN past the logical space": {func(ms *MountState) {
			ms.L2P, ms.Stamps = append(ms.L2P, ms.L2P[0]), append(ms.Stamps, ms.Stamps[0])
			ms.L2P[0], ms.Stamps[0] = ssd.UnmappedPPN, 0
		}, "the device exports"},
		"PPN past the device": {func(ms *MountState) { ms.L2P[0] = ssd.PPN(geo.PhysPages() + 5) }, "outside the device"},
		"negative PPN":        {func(ms *MountState) { ms.L2P[0] = -7 }, "outside the device"},
		"PPN two LPNs claim":  {func(ms *MountState) { ms.L2P[1] = ms.L2P[0] }, "maps LPNs 0 and 1"},
		"unprogrammed page": {func(ms *MountState) {
			ms.L2P[0] = geo.EncodePPN(0, ms.Free[0][0], geo.WLsPerBlock()-1, 0)
		}, "unwritten"},
		"page in a free block": {func(ms *MountState) {
			chip, block, _, _, _ := geo.DecodePPN(ms.L2P[0])
			ms.Actives[chip] = slices.DeleteFunc(ms.Actives[chip], func(a ActiveRecord) bool { return a.Block == block })
			ms.Free[chip] = append(ms.Free[chip], block)
		}, "unwritten"},
	} {
		ms := fresh.mountState()
		c.spoil(&ms)
		if _, err := NewControllerWithState(written(), NewPagePolicy(), DefaultControllerConfig(), ms); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: mount error %v, want one saying %q", name, err, c.want)
		}
	}
	m, err := NewControllerWithState(written(), NewPagePolicy(), DefaultControllerConfig(), fresh.mountState())
	if err != nil {
		t.Fatalf("unspoiled state refused: %v", err)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
