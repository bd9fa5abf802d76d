package ftl

import (
	"slices"
	"testing"

	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// heldHook is a RecoveryHook with no journal at all: it records the
// mappings the controller reports and the instant of each. Barriers
// proceed at once. Whatever a durable ack waits for, it cannot be this.
type heldHook struct {
	eng    *sim.Engine
	mapped []MappingRecord
	at     []sim.Time
}

func (h *heldHook) NoteBlockOpened(chip, block int, seq uint64) {}
func (h *heldHook) NoteMapped(lpn LPN, stamp uint64) {
	h.mapped = append(h.mapped, MappingRecord{LPN: lpn, Stamp: stamp})
	h.at = append(h.at, h.eng.Now())
}
func (h *heldHook) NoteTrim(lpn LPN, stamp uint64)               {}
func (h *heldHook) NoteRetired(chip, block int)                  {}
func (h *heldHook) NoteDieDegraded(die int)                      {}
func (h *heldHook) BarrierErase(chip, block int, proceed func()) { proceed() }
func (h *heldHook) NoteErased(chip, block int, proceed func())   { proceed() }

// mappedAt returns when lpn was mapped under stamp, or -1.
func (h *heldHook) mappedAt(lpn LPN, stamp uint64) sim.Time {
	for i, m := range h.mapped {
		if m.LPN == lpn && m.Stamp == stamp {
			return h.at[i]
		}
	}
	return -1
}

func durableAckController(seed uint64) (*sim.Engine, *Controller, *heldHook) {
	eng, dev := faultDevice(seed, 24)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true // the fault device stores payloads
	cfg.DurableAcks = true
	c := NewController(dev, NewPagePolicy(), cfg)
	h := &heldHook{eng: eng}
	c.SetRecovery(h)
	return eng, c, h
}

// heldStamps lists the held-ack chain, which must stay sorted by stamp
// with the tail pointer on its last record.
func heldStamps(t *testing.T, c *Controller) []uint64 {
	t.Helper()
	var out []uint64
	var last *hostWrite
	for w := c.heldAcks; w != nil; w = w.next {
		if len(out) > 0 && w.stamp <= out[len(out)-1] {
			t.Fatalf("held acks out of stamp order: %v then %d", out, w.stamp)
		}
		out = append(out, w.stamp)
		last = w
	}
	if last != c.heldAcksTail {
		t.Fatalf("tail pointer is not the last held write (chain %v)", out)
	}
	if len(out) != c.PendingAckCount() {
		t.Fatalf("chain holds %d writes, PendingAckCount says %d", len(out), c.PendingAckCount())
	}
	return out
}

// A durable ack lands at the completion of the program that put its page
// on the media — not at admission, and not a journal flush later (the
// hook has no journal). A write overwritten while its page was in the
// buffer is acked by the newer version's program.
func TestDurableAckLandsAtProgramCompletion(t *testing.T) {
	eng, c, h := durableAckController(3)
	ackedAt := map[int]sim.Time{}
	var order []int
	write := func(id int, lpn LPN) {
		t.Helper()
		if err := c.Write(lpn, nil, func() { ackedAt[id] = eng.Now(); order = append(order, id) }); err != nil {
			t.Fatal(err)
		}
	}
	// Stamps 1..5. The first three fill a word line and go at once; LPN 7
	// is written again while that program carries its stamp-1 copy, so
	// stamp 1 settles stale and stamp 4 rides the next program with LPN 10.
	write(0, 7)
	write(1, 8)
	write(2, 9)
	write(3, 7)
	write(4, 10)
	eng.RunUntil(c.cfg.BufferReadNs)
	if len(ackedAt) != 0 {
		t.Fatalf("writes acked at admission: %v", ackedAt)
	}
	if got := heldStamps(t, c); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("held stamps %v, want 1..5", got)
	}
	eng.RunWhile(func() bool { return !c.Drained() })

	first := h.mappedAt(8, 2)
	if first <= 0 || h.mappedAt(9, 3) != first {
		t.Fatalf("mappings %v at %v: want 8@2 and 9@3 by one program", h.mapped, h.at)
	}
	if h.mappedAt(7, 1) >= 0 {
		t.Error("the overwritten stamp-1 copy of LPN 7 was mapped")
	}
	// Each write is acked when the version that covers it is mapped: LPN
	// 7's first write by its second.
	for id, v := range []MappingRecord{{LPN: 7, Stamp: 4}, {LPN: 8, Stamp: 2}, {LPN: 9, Stamp: 3}, {LPN: 7, Stamp: 4}, {LPN: 10, Stamp: 5}} {
		if want := h.mappedAt(v.LPN, v.Stamp); want <= 0 || ackedAt[id] != want {
			t.Errorf("write %d acked at %d, want %d: the completion of the program carrying %d@%d", id, ackedAt[id], want, v.LPN, v.Stamp)
		}
	}
	// Settled pages in program order, each page's held writes oldest
	// first.
	if want := []int{1, 2, 4, 0, 3}; !slices.Equal(order, want) {
		t.Errorf("ack order %v, want %v", order, want)
	}
	if got := heldStamps(t, c); len(got) != 0 {
		t.Fatalf("held stamps %v, want none", got)
	}
}

// An ack may issue the next write synchronously — the closed-loop host
// does. The acks run once the completion is settled, and the record an
// ack just released may be the very one the reentrant write is held in.
func TestDurableAckMayReenterWrite(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	eng, c, h := durableAckController(4)
	acks := 0
	var reissue func()
	reissue = func() {
		acks++
		heldStamps(t, c) // settled before any ack runs
		if acks <= 3 {
			if err := c.Write(LPN(20+acks), nil, reissue); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, lpn := range []LPN{5, 6, 5} {
		if err := c.Write(lpn, nil, reissue); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunWhile(func() bool { return !c.Drained() })
	if acks != 6 || c.PendingAckCount() != 0 {
		t.Fatalf("acks = %d, held = %d; want 6 and 0", acks, c.PendingAckCount())
	}
	for _, lpn := range []LPN{5, 6, 21, 22, 23} {
		if c.Mapper().Lookup(lpn) == ssd.UnmappedPPN {
			t.Errorf("LPN %d acked but not mapped (mappings %v)", lpn, h.mapped)
		}
	}
}

// A device that degrades to read-only completes every held ack, oldest
// first: the data will never program, and the host's loop must end. A
// program already running completes afterwards without acking twice.
func TestHeldAcksCompleteWhenDeviceDegrades(t *testing.T) {
	eng, c, _ := durableAckController(5)
	var acked []int
	for i := 0; i < 4; i++ {
		i := i
		if err := c.Write(LPN(i), nil, func() { acked = append(acked, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if c.PendingAckCount() != 4 || inflightPrograms(c) != 1 {
		t.Fatalf("held %d acks with %d programs in flight, want 4 and 1", c.PendingAckCount(), inflightPrograms(c))
	}
	for die := 0; die < c.geo.Chips; die++ {
		c.markDieDegraded(die)
	}
	c.checkDeviceDegraded()
	if !c.Degraded() {
		t.Fatal("device did not degrade")
	}
	if len(acked) != 4 || acked[0] != 0 || acked[3] != 3 {
		t.Fatalf("acked %v, want [0 1 2 3]", acked)
	}
	heldStamps(t, c)
	eng.Run()
	if len(acked) != 4 {
		t.Fatalf("acked %v after the program in flight completed, want each write once", acked)
	}
}

// A block that leaves the write points while a host program into it is
// in flight — here a die degrading under it — stays in the list a
// checkpoint takes of them until that program is done: its pages are
// acked on completion, and a mount rolls pages forward only from the
// blocks a checkpoint lists.
func TestCheckpointListsABlockWithAProgramInFlight(t *testing.T) {
	eng, c, _ := durableAckController(5)
	for lpn := LPN(0); lpn < 3; lpn++ {
		if err := c.Write(lpn, nil, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	die := slices.IndexFunc(c.dies, func(d die) bool { return d.inflight == 1 })
	if die < 0 {
		t.Fatal("no program in flight")
	}
	cur := c.dies[die].actives[slices.IndexFunc(c.dies[die].actives, func(b *BlockCursor) bool { return b.programs == 1 })]
	rec := ActiveRecord{Block: cur.Block, Seq: cur.Seq}
	c.markDieDegraded(die)
	if len(c.dies[die].actives) != 0 || !slices.Contains(c.AppendActives(nil, die), rec) {
		t.Fatalf("after the die degraded: write points %d, listed %v; want none, and block %d still listed",
			len(c.dies[die].actives), c.AppendActives(nil, die), rec.Block)
	}
	eng.Run()
	if got := c.AppendActives(nil, die); len(got) != 0 || len(c.dies[die].closing) != 0 {
		t.Fatalf("the program done, the die still lists %v (%d closing)", got, len(c.dies[die].closing))
	}
}

// inflightPrograms is how many host programs the dies have outstanding.
func inflightPrograms(c *Controller) (n int) {
	for i := range c.dies {
		n += c.dies[i].inflight
	}
	return n
}

// Nagle's rule for a partial word-line group under durable acks: on an
// idle array it leaves one DMA time after admission, together with
// whatever was admitted at the same instant; behind a program in flight
// it is held — more pages may come — and leaves when that program
// completes; the flush timer stays armed behind it as the bound.
func TestPartialGroupRidesTheProgramInFlight(t *testing.T) {
	eng, c, h := durableAckController(6)
	var acked []LPN
	write := func(lpns ...LPN) {
		t.Helper()
		for _, lpn := range lpns {
			if err := c.Write(lpn, nil, func() { acked = append(acked, lpn) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()

	// Idle array: two pages at one instant, one word line, one pad, at
	// the DMA time — not at once, and not at the timer.
	write(1, 2)
	if inflightPrograms(c) != 0 || !c.earlyArmed || c.timerArmed {
		t.Fatalf("at admission: %d programs in flight, early flush armed %v, timer armed %v; want 0, true, false",
			inflightPrograms(c), c.earlyArmed, c.timerArmed)
	}
	eng.RunUntil(c.cfg.BufferReadNs)
	if inflightPrograms(c) != 1 || st.Padded != 1 || st.EarlyFlushes != 1 || c.buf.Flushable() != 0 {
		t.Fatalf("one DMA time in: %d programs in flight, %d pages of padding, %d early flushes, %d pages still queued; want 1, 1, 1, 0",
			inflightPrograms(c), st.Padded, st.EarlyFlushes, c.buf.Flushable())
	}

	// A page admitted behind that program is held, under the timer.
	eng.RunUntil(300 * sim.Microsecond)
	write(3)
	admitted := eng.Now()
	if inflightPrograms(c) != 1 || c.earlyArmed || !c.timerArmed {
		t.Fatalf("admitted mid-program: %d in flight, early flush armed %v, timer armed %v; want 1, false, true",
			inflightPrograms(c), c.earlyArmed, c.timerArmed)
	}
	eng.RunWhile(func() bool { return inflightPrograms(c) > 0 })
	completed := eng.Now()
	if completed >= admitted+c.cfg.FlushTimeoutNs {
		t.Fatalf("the first program ran until %d, past the timer armed at %d: the scenario is gone", completed, admitted)
	}
	if c.buf.Flushable() != 1 || st.Programs != 1 || !c.earlyArmed {
		t.Fatalf("at the completion: %d pages queued, %d programs done, early flush armed %v; want 1, 1, true",
			c.buf.Flushable(), st.Programs, c.earlyArmed)
	}
	if len(acked) != 2 || h.mappedAt(1, 1) != completed {
		t.Fatalf("at the completion: acked %v, want [1 2] — their program is done", acked)
	}
	// It leaves on that completion, not on the timer still pending.
	eng.RunUntil(completed + c.cfg.BufferReadNs)
	if inflightPrograms(c) != 1 || c.buf.Flushable() != 0 || st.Padded != 3 || st.EarlyFlushes != 2 {
		t.Fatalf("one DMA time after the completion: %d in flight, %d queued, %d pages of padding, %d early flushes; want 1, 0, 3, 2",
			inflightPrograms(c), c.buf.Flushable(), st.Padded, st.EarlyFlushes)
	}

	// The timer armed at the admission still fires, and finds nothing.
	eng.RunWhile(func() bool { return c.buf.Occupied() > 0 || c.timerArmed })
	if st.Programs != 2 || st.Padded != 3 || inflightPrograms(c) != 0 {
		t.Fatalf("drained: %d programs, %d pages of padding, %d in flight; want 2, 3, 0", st.Programs, st.Padded, inflightPrograms(c))
	}
	if len(acked) != 3 || c.PendingAckCount() != 0 {
		t.Fatalf("acked %v with %d held, want all three and none", acked, c.PendingAckCount())
	}
}

// A host that promises to submit nothing new while it drains (the
// facade's FrontEnd.Pump) lets a partial group leave one DMA time after
// admission even behind a program in flight: the pages it would wait
// for cannot come. A group already held when the promise is made goes
// too; without the promise it is held as before.
func TestDrainPromiseSendsThePartialGroupAtOnce(t *testing.T) {
	eng, c, _ := durableAckController(6)
	write := func(lpns ...LPN) {
		t.Helper()
		for _, lpn := range lpns {
			if err := c.Write(lpn, nil, func() {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	write(1, 2)
	eng.RunUntil(100 * sim.Microsecond)
	if inflightPrograms(c) != 1 {
		t.Fatalf("%d programs in flight, want the first", inflightPrograms(c))
	}

	// Held behind the program, until the promise.
	write(3)
	if c.earlyArmed || !c.timerArmed {
		t.Fatalf("without the promise: early flush armed %v, timer armed %v; want false, true", c.earlyArmed, c.timerArmed)
	}
	c.SetDrainPromise(true)
	promised := eng.Now()
	if !c.earlyArmed {
		t.Fatal("the promise left the held group waiting")
	}
	eng.RunUntil(promised + c.cfg.BufferReadNs)
	if inflightPrograms(c) != 2 || st.EarlyFlushes != 2 || c.buf.Flushable() != 0 {
		t.Fatalf("one DMA time after the promise: %d programs in flight, %d early flushes, %d queued; want 2, 2, 0",
			inflightPrograms(c), st.EarlyFlushes, c.buf.Flushable())
	}

	// Under the promise, a page admitted behind a program in flight goes
	// one DMA time after admission.
	eng.RunWhile(func() bool { return inflightPrograms(c) > 1 })
	write(4)
	admitted := eng.Now()
	if !c.earlyArmed {
		t.Fatal("admitted under the promise: early flush not armed")
	}
	eng.RunUntil(admitted + c.cfg.BufferReadNs)
	if c.buf.Flushable() != 0 || st.EarlyFlushes != 3 {
		t.Fatalf("one DMA time after admission: %d queued, %d early flushes; want 0, 3", c.buf.Flushable(), st.EarlyFlushes)
	}

	// Withdrawn, the rule is the idle array's again.
	c.SetDrainPromise(false)
	write(5)
	if c.earlyArmed || !c.timerArmed {
		t.Fatalf("promise withdrawn: early flush armed %v, timer armed %v; want false, true", c.earlyArmed, c.timerArmed)
	}
	eng.RunWhile(func() bool { return !c.Drained() })
	if c.PendingAckCount() != 0 || st.Programs != 4 {
		t.Fatalf("drained with %d acks held after %d programs, want 0 and 4", c.PendingAckCount(), st.Programs)
	}
}

// With volatile acks the host is not waiting on the program: a partial
// group waits out the timer on any array, as it always has — promise or
// no promise.
func TestVolatileAcksKeepTheFlushTimer(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.SetRecovery(&heldHook{eng: eng}) // a hook alone changes nothing
	c.SetDrainPromise(true)
	if err := c.Write(1, nil, func() {}); err != nil {
		t.Fatal(err)
	}
	if c.earlyArmed || !c.timerArmed {
		t.Fatalf("early flush armed %v, timer armed %v; want false, true", c.earlyArmed, c.timerArmed)
	}
	eng.RunUntil(c.cfg.FlushTimeoutNs - 1)
	if c.buf.Flushable() != 1 {
		t.Fatal("the page left before the flush timer")
	}
	eng.Run()
	if st := c.Stats(); st.Padded != 2 || st.EarlyFlushes != 0 || st.Programs != 1 {
		t.Fatalf("%d pages of padding, %d early flushes, %d programs; want 2, 0, 1", st.Padded, st.EarlyFlushes, st.Programs)
	}
}
