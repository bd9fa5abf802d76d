package ftl

import (
	"testing"

	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// heldHook is a RecoveryHook that makes nothing durable on its own: it
// records the mappings the controller reports and lets the test release
// their acks in whatever order it likes. Barriers proceed at once.
type heldHook struct {
	mapped []MappingRecord
}

func (h *heldHook) NoteBlockOpened(chip, block int, seq uint64) {}
func (h *heldHook) NoteMapped(lpn LPN, ppn ssd.PPN, stamp uint64) {
	h.mapped = append(h.mapped, MappingRecord{LPN: lpn, PPN: ppn, Stamp: stamp})
}
func (h *heldHook) NoteTrim(lpn LPN)                             {}
func (h *heldHook) NoteRetired(chip, block int)                  {}
func (h *heldHook) NoteDieDegraded(die int)                      {}
func (h *heldHook) BarrierErase(chip, block int, proceed func()) { proceed() }
func (h *heldHook) NoteErased(chip, block int, proceed func())   { proceed() }

func durableAckController(seed uint64) (*sim.Engine, *Controller, *heldHook) {
	eng, dev := faultDevice(seed, 24)
	cfg := DefaultControllerConfig()
	cfg.WriteBufferPages = 32
	cfg.VerifyData = true // the fault device stores payloads
	cfg.DurableAcks = true
	c := NewController(dev, NewPagePolicy(), cfg)
	h := &heldHook{}
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

func TestDurableAcksHeldAndReleasedByStamp(t *testing.T) {
	eng, c, h := durableAckController(3)
	var acked []int
	write := func(id int, lpn LPN) {
		if err := c.Write(lpn, nil, func() { acked = append(acked, id) }); err != nil {
			t.Fatal(err)
		}
	}
	// Stamps 1..5; LPN 7 is written twice before anything programs, so
	// its first write coalesces in the buffer and only stamp 4 is mapped.
	write(0, 7)
	write(1, 8)
	write(2, 9)
	write(3, 7)
	write(4, 10)
	eng.RunWhile(func() bool { return c.buf.Occupied() > 0 })
	if len(acked) != 0 {
		t.Fatalf("writes acked before their mappings were durable: %v", acked)
	}
	if got := heldStamps(t, c); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("held stamps %v, want 1..5", got)
	}
	if c.Drained() {
		t.Error("controller reports drained while acks are held")
	}
	stampOf := map[LPN]uint64{}
	for _, m := range h.mapped {
		stampOf[m.LPN] = m.Stamp
	}
	if stampOf[7] != 4 || stampOf[8] != 2 || stampOf[9] != 3 || stampOf[10] != 5 {
		t.Fatalf("mapped stamps %v", stampOf)
	}

	// Out of admission order, from the middle of the chain.
	c.ReleaseDurableAcks(9, 3)
	if len(acked) != 1 || acked[0] != 2 {
		t.Fatalf("after releasing (9, 3): acked %v, want [2]", acked)
	}
	heldStamps(t, c)
	// A stamp below the held one releases nothing.
	c.ReleaseDurableAcks(10, 4)
	if len(acked) != 1 {
		t.Fatalf("release below the held stamp acked %v", acked)
	}
	// The coalesced write rides the newer one, oldest first.
	c.ReleaseDurableAcks(7, 4)
	if len(acked) != 3 || acked[1] != 0 || acked[2] != 3 {
		t.Fatalf("after releasing (7, 4): acked %v, want [2 0 3]", acked)
	}
	// The tail.
	c.ReleaseDurableAcks(10, 5)
	if got := heldStamps(t, c); len(got) != 1 || got[0] != 2 {
		t.Fatalf("held stamps %v, want [2]", got)
	}
	c.ReleaseDurableAcks(8, 2)
	if got := heldStamps(t, c); len(got) != 0 {
		t.Fatalf("held stamps %v, want none", got)
	}
	if len(acked) != 5 || !c.Drained() {
		t.Fatalf("acked %v, drained %v", acked, c.Drained())
	}
	// Releasing again, or an LPN never held, is a no-op.
	c.ReleaseDurableAcks(8, 2)
	c.ReleaseDurableAcks(99, 100)
	if len(acked) != 5 {
		t.Errorf("spurious acks: %v", acked)
	}
}

// An ack may issue the next write synchronously — the closed-loop host
// does. The chain is settled before any ack runs, and the record an ack
// just released may be the very one the reentrant write is held in.
func TestDurableAckMayReenterWrite(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	eng, c, _ := durableAckController(4)
	acks := 0
	var reissue func()
	reissue = func() {
		acks++
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
	eng.RunWhile(func() bool { return c.buf.Occupied() > 0 })
	c.ReleaseDurableAcks(5, 3) // two acks, each writes again
	if acks != 2 {
		t.Fatalf("acks = %d, want 2", acks)
	}
	if got := heldStamps(t, c); len(got) != 3 || got[0] != 2 {
		t.Fatalf("held stamps %v, want LPN 6's and the two reissued writes", got)
	}
	c.ReleaseDurableAcks(6, 2)
	eng.RunWhile(func() bool { return c.buf.Occupied() > 0 })
	for w := c.heldAcks; w != nil; w = c.heldAcks {
		c.ReleaseDurableAcks(w.lpn, w.stamp)
	}
	if acks != 6 || c.PendingAckCount() != 0 {
		t.Fatalf("acks = %d, held = %d; want 6 and 0", acks, c.PendingAckCount())
	}
}

// A device that degrades to read-only completes every held ack, oldest
// first: the data will never program, and the host's loop must end.
func TestHeldAcksCompleteWhenDeviceDegrades(t *testing.T) {
	eng, c, _ := durableAckController(5)
	var acked []int
	for i := 0; i < 4; i++ {
		i := i
		if err := c.Write(LPN(i), nil, func() { acked = append(acked, i) }); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunWhile(func() bool { return c.buf.Occupied() > 0 })
	if c.PendingAckCount() != 4 {
		t.Fatalf("held %d acks, want 4", c.PendingAckCount())
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
	if c.PendingAckCount() != 3 {
		t.Fatalf("%d acks held, want all 3 (the hook releases nothing)", c.PendingAckCount())
	}
}

// With volatile acks the host is not waiting on the program: a partial
// group waits out the timer on any array, as it always has.
func TestVolatileAcksKeepTheFlushTimer(t *testing.T) {
	eng, c := testController(t, NewPagePolicy())
	c.SetRecovery(&heldHook{}) // a hook alone changes nothing
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
