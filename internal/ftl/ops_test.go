package ftl

import (
	"slices"
	"strings"
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/rng"
)

// Op-record reuse must be safe under the nastiest traffic the package
// has. With every free list in the process capped at one record, each
// layer keeps recycling its single spare record immediately and drops
// every other released record for good — so a record stepped after its
// release can never have been handed out again and trips its liveness
// check. The chaos soaks (program/erase/read faults, a killed die) and
// the integrity soak through GC run unchanged on top of that, the
// VerifyData oracle still reporting zero mismatches.
func TestOpRecordReuseUnderChaos(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	t.Run("chaos-soak", TestChaosSoak)
	t.Run("chaos-soak-die-kill", TestChaosSoakDieKill)
	t.Run("fenced-programs", TestDegradedFenceFailsQueuedPrograms)
	t.Run("integrity-soak-through-gc", TestIntegritySoakThroughGC)
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func TestReleasedOpRecordPanicsWhenStepped(t *testing.T) {
	eng, c := verifyingController(3)
	n := c.LogicalPages() / 2
	src := rng.New(8)
	for i := 0; i < 6*n; i++ { // random overwrites, so GC has pages to move
		c.Write(LPN(src.Intn(n)), nil, func() {})
		if i%16 == 15 {
			eng.Run()
		}
	}
	c.Read(1, nil, func() {})
	eng.Run()
	if c.Stats().GCPageMoves == 0 {
		t.Fatal("setup never relocated a page: no relocation record to test")
	}

	r, w, f, g := c.hostReads.Get(), c.hostWrites.Get(), c.flushOps.Get(), c.relocOps.Get()
	if r == nil || w == nil || f == nil || g == nil {
		t.Fatalf("drained controller holds no spare record of some kind: %v %v %v %v", r, w, f, g)
	}
	if r.done != nil || r.pp != nil || w.done != nil || f.group != nil || f.cursor != nil || g.rest != nil || g.cursor != nil {
		t.Fatal("released records still reference their operation's callbacks or data")
	}
	for i, d := range g.data {
		if d != nil {
			t.Fatalf("released relocation record still pins payload %d", i)
		}
	}
	mustPanic(t, "released ftl host read", r.finish)
	mustPanic(t, "released ftl host write", w.ack)
	mustPanic(t, "released ftl flush op", func() { f.programDone(zeroProgram()) })
	mustPanic(t, "released ftl relocation batch", func() { g.programDone(zeroProgram()) })
}

func zeroProgram() (*nand.ProgramResult, error) { return new(nand.ProgramResult), nil }

// A write point's cursor is recycled once its block has left the write
// points with no program into it in flight; stepping it after that is
// a use-after-release bug, and it panics like a released op record.
func TestReleasedCursorPanicsWhenStepped(t *testing.T) {
	eng, c := verifyingController(3)
	for lpn := range LPN(c.LogicalPages() / 2) { // fills and rotates write points on every die
		c.Write(lpn, nil, func() {})
	}
	eng.Run()
	// A die that degrades abandons its write points, and no block
	// reopens to take their cursors back.
	open := slices.Clone(c.dies[1].actives)
	c.markDieDegraded(1)
	cur := c.cursors.Get()
	if cur == nil || !slices.Contains(open, cur) {
		t.Fatalf("degrading a die released %p, want one of its write points %v", cur, open)
	}
	if cur.live || cur.programs != 0 {
		t.Fatalf("released cursor: live=%v with %d programs in flight", cur.live, cur.programs)
	}
	for chip := range c.dies {
		for _, open := range c.dies[chip].actives {
			if open == cur {
				t.Fatal("a released cursor is still a write point")
			}
		}
	}
	mustPanic(t, "released ftl block cursor", func() { cur.Take(0, 0) })
	mustPanic(t, "released ftl block cursor", func() { c.programEnded(cur.Chip, cur) })
	c.cursors.Put(cur)
	if fresh := c.openCursor(0, 5); fresh != cur || !fresh.live || fresh.used != 0 || fresh.Chip != 0 || fresh.Block != 5 {
		t.Fatalf("reopened cursor: %+v, want the released one over an erased block 5", fresh)
	}
}
