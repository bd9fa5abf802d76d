package ftl

import (
	"fmt"
	"strings"
	"testing"

	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

var outlookNames = [...]string{takes: "takes", waits: "waits", needsGC: "needsGC", never: "never"}

// DieReport lists each die's outlook, free blocks, cycle and host
// programs in flight: what a test that finds the controller not drained
// prints.
func (c *Controller) DieReport() string {
	var b strings.Builder
	for die := range c.dies {
		d := &c.dies[die]
		fmt.Fprintf(&b, "\n  die %d: %s, %d free, cycle open %v, %d host programs in flight",
			die, outlookNames[c.outlook(die)], len(d.free), d.cycle.active, d.inflight)
	}
	return b.String()
}

// drainWithin runs eng until c has drained and no event is pending, and
// fails t, printing every die, if that takes more than budget events.
func drainWithin(t *testing.T, eng *sim.Engine, c *Controller, budget uint64) {
	t.Helper()
	start := eng.Fired()
	eng.RunWhile(func() bool { return eng.Fired()-start < budget })
	if eng.Pending() > 0 || !c.Drained() {
		t.Fatalf("not drained after %d events (%d pending, %d flushable pages):%s",
			eng.Fired()-start, eng.Pending(), c.buf.Flushable(), c.DieReport())
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// strandingDie is one die of TestDrainedDeviceSettles's shape (16 blocks
// of 8 h-layers) after 5/3 passes of writes over a quarter of its
// logical space, drained, with the free pool well above the GC threshold.
func strandingDie(t *testing.T) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	scfg := ssd.DefaultConfig()
	scfg.Channels, scfg.DiesPerChannel = 1, 1
	scfg.Chip.Process.BlocksPerChip = 16
	scfg.Chip.Process.Layers = 8
	scfg.Seed = 1
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	c := NewController(ssd.New(eng, scfg), NewPagePolicy(), cfg)
	n := LPN(c.LogicalPages() / 4)
	for i := LPN(0); i < 5*n/3; i++ {
		c.Write(i%n, nil, func() {})
	}
	drainWithin(t, eng, c, 10_000)
	if free := len(c.dies[0].free); free != 10 {
		t.Fatalf("%d free blocks after the overwrites, want the 10 the case was found on", free)
	}
	return eng, c
}

// A grown bad block that leaves a die one free block, with a victim to
// collect and no cycle open, must start the collection: no completion is
// coming that would, so the idle die would stay stranded. A host page
// written next was held for a die that never took it, and the flush
// timer re-armed itself forever.
func TestGrowBadBlockToTheLastFreeBlockCollects(t *testing.T) {
	eng, c := strandingDie(t)
	d := &c.dies[0]
	for len(d.free) > 1 {
		if !c.GrowBadBlock(0, d.free[0]) {
			t.Fatalf("GrowBadBlock refused free block %d", d.free[0])
		}
	}
	drainWithin(t, eng, c, 10_000)
	if err := c.Write(0, nil, func() {}); err != nil {
		t.Fatal(err)
	}
	drainWithin(t, eng, c, 10_000)
	if c.Stats().GCCount == 0 {
		t.Error("the die drained without collecting")
	}
}

// A mount of a die at its last free block with a victim to collect hears
// of no completion either: it settles each die itself.
func TestMountAtTheLastFreeBlockCollects(t *testing.T) {
	eng, c := strandingDie(t)
	ms := c.mountState()
	cut := len(ms.Free[0]) - 1
	ms.Retired[0] = append(ms.Retired[0], ms.Free[0][:cut]...)
	ms.Free[0] = ms.Free[0][cut:]
	m, err := NewControllerWithState(c.dev, NewPagePolicy(), c.cfg, ms)
	if err != nil {
		t.Fatal(err)
	}
	drainWithin(t, eng, m, 10_000)
	if err := m.Write(0, nil, func() {}); err != nil {
		t.Fatal(err)
	}
	drainWithin(t, eng, m, 10_000)
	if m.Stats().GCCount == 0 {
		t.Error("the mounted die drained without collecting")
	}
}

// CheckConsistency reports a drained die left at its last free block
// with a victim and no cycle open: capacity no pending event reclaims.
func TestCheckConsistencyReportsAStrandedDie(t *testing.T) {
	_, c := strandingDie(t)
	d := &c.dies[0]
	for _, b := range d.free[1:] {
		c.setRole(0, b, roleRetired) // cut the pool behind settle's back
	}
	d.free = d.free[:1]
	if got := c.outlook(0); got != needsGC {
		t.Fatalf("outlook %s, want needsGC", outlookNames[got])
	}
	if err := c.CheckConsistency(); err == nil || !strings.Contains(err.Error(), "stranded") {
		t.Fatalf("CheckConsistency = %v, want the die reported stranded", err)
	}
	c.settle(0)
	if !d.cycle.active {
		t.Fatal("settle opened no GC cycle on the stranded die")
	}
}
