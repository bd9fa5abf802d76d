package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// checkStreamedImage pins the streaming encoder against the reference
// one on ctrl's current state: into a nil buffer, and into a larger
// buffer full of another image's bytes (the steady state — a slot's
// buffer still holds the checkpoint it is about to lose).
func checkStreamedImage(t *testing.T, name string, ctrl *ftl.Controller) {
	t.Helper()
	want := referenceImage(ctrl)
	var enc ckptEncoder
	if got := enc.appendCheckpoint(nil, ctrl); !bytes.Equal(got, want) {
		t.Errorf("%s: streamed image differs from the reference encoder's (%d vs %d bytes)", name, len(got), len(want))
	}
	stale := bytes.Repeat([]byte{0xA5}, len(want)+4096)
	if got := enc.appendCheckpoint(stale[:0], ctrl); !bytes.Equal(got, want) {
		t.Errorf("%s: image streamed into a used buffer differs from the reference encoder's", name)
	}
	if _, _, err := decodeCheckpoint(want); err != nil {
		t.Errorf("%s: reference image does not decode: %v", name, err)
	}
}

// hammer overwrites random pages of the lower part of the logical space
// until ops writes have been acknowledged, at queue depth 16.
func hammer(t testing.TB, ctrl *ftl.Controller, seed uint64, ops int) {
	t.Helper()
	src := rng.New(seed)
	n := ctrl.LogicalPages() * 3 / 10
	outstanding := 0
	var issue func()
	issue = func() {
		for outstanding < 16 && ops > 0 {
			ops--
			outstanding++
			if err := ctrl.Write(ftl.LPN(src.Intn(n)), nil, func() { outstanding--; issue() }); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}
	issue()
	ctrl.Engine().RunWhile(func() bool { return outstanding > 0 || !ctrl.Drained() })
}

// The streamed checkpoint image must be the reference encoder's, byte
// for byte, on every kind of state a controller can be in: the image's
// length is simulated time (CkptBaseNs + CkptNsPerByte*len) and its
// bytes are what StateBytes compares across runs.
func TestStreamedCheckpointMatchesReference(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		for name, pol := range map[string]func(*ssd.Device) ftl.Policy{
			"cube": func(dev *ssd.Device) ftl.Policy { return core.New(dev.Geometry()) },
			"page": func(*ssd.Device) ftl.Policy { return ftl.NewPagePolicy() },
		} {
			dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
			ctrl := ftl.NewController(dev, pol(dev), cutCtrlConfig())
			checkStreamedImage(t, name, ctrl)
			// The attach-time checkpoint is the same image, installed.
			mgr := Attach(ctrl, NewSystemArea(), Options{})
			if !bytes.Equal(mgr.StateBytes(), referenceImage(ctrl)) {
				t.Errorf("%s: attach-time checkpoint differs from the reference encoder's", name)
			}
		}
	})

	t.Run("post-GC", func(t *testing.T) {
		ctrl, mgr, _ := launch(t, 42, 3000, 0)
		if ctrl.Stats().GCCount == 0 {
			t.Fatal("run never collected")
		}
		checkStreamedImage(t, "cube after GC", ctrl)
		// Mid-flight too: buffered writes, open relocations.
		ctrl2, _, _ := launch(t, 42, 3000, ctrl.Engine().Now()/2)
		checkStreamedImage(t, "cube mid-run", ctrl2)

		t.Run("post-remount", func(t *testing.T) {
			mgr.PowerCut()
			ctrl3, _ := remountFrom(t, 42, ctrl.Device().Array(), mgr.System(), false)
			checkStreamedImage(t, "remounted", ctrl3)
			mgr3 := Attach(ctrl3, mgr.System(), Options{})
			if !bytes.Equal(mgr3.StateBytes(), referenceImage(ctrl3)) {
				t.Error("post-mount checkpoint (written into a surviving slot's buffer) differs from the reference encoder's")
			}
		})
	})

	t.Run("without policy state", func(t *testing.T) {
		eng := sim.NewEngine()
		dev := ssd.New(eng, cutSSDConfig(8))
		ctrl := ftl.NewController(dev, ftl.NewPagePolicy(), cutCtrlConfig())
		Attach(ctrl, NewSystemArea(), Options{})
		hammer(t, ctrl, 5, 3*ctrl.LogicalPages())
		if ctrl.Stats().GCCount == 0 {
			t.Fatal("run never collected")
		}
		checkStreamedImage(t, "page policy after GC", ctrl)
	})

	t.Run("retired block", func(t *testing.T) {
		eng := sim.NewEngine()
		dev := ssd.New(eng, cutSSDConfig(5))
		dev.SetChipFaults(0, nand.FaultConfig{ProgramFailAt: []nand.Address{{Block: 0, Layer: 0, WL: 0}}})
		dev.SetChipFaults(2, nand.FaultConfig{ProgramFailAt: []nand.Address{{Block: 1, Layer: 0, WL: 0}, {Block: 0, Layer: 0, WL: 0}}})
		ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
		Attach(ctrl, NewSystemArea(), Options{})
		hammer(t, ctrl, 9, 400)
		if !ctrl.IsRetired(0, 0) || ctrl.Stats().RetiredBlocks < 2 {
			t.Fatalf("set-up retired %d blocks, want chip 0 block 0 and at least one more", ctrl.Stats().RetiredBlocks)
		}
		checkStreamedImage(t, "retired blocks", ctrl)
	})

	t.Run("degraded die", func(t *testing.T) {
		eng := sim.NewEngine()
		dev := ssd.New(eng, cutSSDConfig(9))
		dev.SetChipFaults(1, nand.FaultConfig{ProgramFailRate: 1, EraseFailRate: 1})
		ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
		Attach(ctrl, NewSystemArea(), Options{})
		hammer(t, ctrl, 31, 6000)
		if !ctrl.DieDegraded(1) {
			t.Fatal("dead die never degraded")
		}
		checkStreamedImage(t, "degraded die", ctrl)
	})
}

// Journal records are encoded in place at the end of the staging
// buffer; their bytes must be the frames the original encoder built
// from a separate payload (the journal's length is mount time).
func TestInPlaceRecordsMatchReferenceFrames(t *testing.T) {
	le := binary.LittleEndian
	frame := func(typ byte, payload []byte) []byte {
		b := le.AppendUint16(nil, uint16(len(payload)))
		b = append(append(b, typ), payload...)
		return le.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	u32 := func(vs ...uint32) (p []byte) {
		for _, v := range vs {
			p = le.AppendUint32(p, v)
		}
		return p
	}
	u64 := func(vs ...uint64) (p []byte) {
		for _, v := range vs {
			p = le.AppendUint64(p, v)
		}
		return p
	}
	prefix := []byte("earlier records")
	for name, c := range map[string]struct{ got, want []byte }{
		"BlockOpened": {appendBlockOpened(prefix, 1, 7, 42), frame(recBlockOpened, append(u32(1, 7), u64(42)...))},
		"Mapped":      {appendMapped(prefix, 9, 1234, 55), frame(recMapped, u64(9, 1234, 55))},
		"Trim":        {appendTrim(prefix, 3), frame(recTrim, u64(3))},
		"Erased":      {appendChipBlock(prefix, recErased, 0, 5), frame(recErased, u32(0, 5))},
		"Retired":     {appendChipBlock(prefix, recRetired, 2, 11), frame(recRetired, u32(2, 11))},
		"DieDegraded": {appendDieDegraded(prefix, 3), frame(recDieDegraded, u32(3))},
	} {
		if !bytes.Equal(c.got[:len(prefix)], prefix) || !bytes.Equal(c.got[len(prefix):], c.want) {
			t.Errorf("%s: in-place record is not prefix + reference frame", name)
		}
	}
}

// A power cut in the middle of a checkpoint write finds the target
// slot's buffer already holding the new image — it is encoded in place
// the moment the write begins — but the slot invalid. Mount must come
// up from the other slot and verify, and the next manager's first
// checkpoint goes into the torn slot's buffer.
func TestPowerCutWhileSlotBufferIsRewritten(t *testing.T) {
	const seed, requests = 42, 6000
	_, mgr0, _ := launch(t, seed, requests, 0)
	ckw := mgr0.CkptWindows()
	if len(ckw) < 4 {
		t.Fatalf("probe run completed %d checkpoints, want at least 4", len(ckw))
	}
	// The fourth checkpoint: both slots have been written before, so its
	// slot is one whose buffer is being reused.
	cutAt := (ckw[3][0] + ckw[3][1]) / 2

	ctrl, mgr, led := launch(t, seed, requests, cutAt)
	sys := mgr.System()
	if !mgr.ckptBusy {
		t.Fatal("cut instant is not inside a checkpoint write")
	}
	torn, other := mgr.ckpt.slot, 1-mgr.ckpt.slot
	if sys.slots[torn].valid || !sys.slots[other].valid {
		t.Fatalf("slot validity mid-write: torn=%v other=%v, want false/true", sys.slots[torn].valid, sys.slots[other].valid)
	}
	if len(sys.slots[torn].data) == 0 || cap(sys.slots[torn].data) == 0 {
		t.Fatal("slot being rewritten holds no buffer")
	}
	if _, _, err := decodeCheckpoint(sys.slots[other].data); err != nil {
		t.Fatalf("surviving slot does not decode: %v", err)
	}
	survivor := append([]byte(nil), sys.slots[other].data...)

	mgr.PowerCut()
	if got := sys.StateBytes(); !bytes.Equal(got, survivor) {
		t.Fatal("StateBytes after the cut is not the surviving slot's image")
	}
	ctrl2, rpt := remountFrom(t, seed, ctrl.Device().Array(), sys, false)
	if !rpt.UsedCheckpoint {
		t.Fatal("mount ignored the surviving checkpoint")
	}
	if err := Verify(ctrl2, led); err != nil {
		t.Fatal(err)
	}
	tornBuf := &sys.slots[torn].data[:1][0]
	mgr2 := Attach(ctrl2, sys, Options{Ledger: led})
	if !sys.slots[torn].valid || &sys.slots[torn].data[0] != tornBuf {
		t.Error("post-mount checkpoint did not reuse the torn slot's buffer")
	}
	if !bytes.Equal(sys.slots[other].data, survivor) {
		t.Error("post-mount checkpoint disturbed the slot the mount came up from")
	}
	if !bytes.Equal(mgr2.StateBytes(), referenceImage(ctrl2)) {
		t.Error("post-mount checkpoint differs from the reference encoder's")
	}
}

// StateBytes hands out a copy: later checkpoints overwrite both slots'
// buffers in place, and what a caller was given must not change.
func TestStateBytesDoesNotAliasSlots(t *testing.T) {
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	mgr := Attach(ctrl, NewSystemArea(), Options{CkptIntervalNs: -1})
	got := mgr.StateBytes()
	keep := append([]byte(nil), got...)
	for _, sl := range mgr.sys.slots {
		if len(sl.data) > 0 && &sl.data[0] == &got[0] {
			t.Fatal("StateBytes returned a slot's own buffer")
		}
	}
	for i := 0; i < 3; i++ { // rewrites both slots
		hammer(t, ctrl, uint64(i), 200)
		mgr.CheckpointNow()
		ctrl.Engine().RunWhile(func() bool { return !mgr.Quiesced() })
	}
	if !bytes.Equal(got, keep) {
		t.Error("bytes returned by StateBytes changed under later checkpoints")
	}
	if bytes.Equal(mgr.StateBytes(), keep) {
		t.Error("checkpoints after 600 writes left the image unchanged: the test proves nothing")
	}
	got[0] ^= 0xFF
	if _, _, err := decodeCheckpoint(mgr.sys.slots[mgr.sys.newestSlot()].data); err != nil {
		t.Errorf("writing to StateBytes' result corrupted a slot: %v", err)
	}
}

// waiterFixture is a manager over an idle controller with periodic
// checkpoints off, so the test decides what becomes durable and when.
func waiterFixture(t *testing.T) (*sim.Engine, *Manager) {
	t.Helper()
	eng := sim.NewEngine()
	dev := ssd.New(eng, cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	return eng, Attach(ctrl, NewSystemArea(), Options{CkptIntervalNs: -1})
}

func TestWaitersReleaseInFIFOOrderByFlush(t *testing.T) {
	eng, m := waiterFixture(t)
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }

	// Record 1 starts a flush on its own; 2 and 3 ride the next one.
	m.NoteErased(0, 1, note(1))
	m.NoteErased(0, 2, note(2))
	m.BarrierErase(0, 9, note(3)) // no record of its own: waits on 2's
	m.NoteErased(0, 3, note(4))
	if m.waiters.Len() != 4 || len(order) != 0 {
		t.Fatalf("queued %d waiters, ran %d; want 4 and 0", m.waiters.Len(), len(order))
	}
	eng.RunUntil(eng.Now() + JournalFlushNs)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after the first flush ran %v, want [1]", order)
	}
	eng.RunUntil(eng.Now() + JournalFlushNs)
	if want := []int{1, 2, 3, 4}; len(order) != 4 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Fatalf("release order %v, want %v", order, want)
	}
	if m.waiters.Len() != 0 || !m.Quiesced() {
		t.Error("manager not quiescent after everything flushed")
	}
	// Everything is durable: a barrier runs on the spot.
	ran := false
	m.BarrierErase(0, 9, func() { ran = true })
	if !ran {
		t.Error("barrier over a durable journal was queued")
	}
}

// What a released waiter does may append records and wait again. The
// queue is settled first: the new waiter is not part of this release,
// and runs when its own record is durable.
func TestWaitersMayReenter(t *testing.T) {
	eng, m := waiterFixture(t)
	var order []string
	m.NoteErased(0, 1, func() {
		order = append(order, "outer")
		m.NoteErased(0, 2, func() { order = append(order, "inner") })
		m.BarrierErase(0, 2, func() { order = append(order, "inner-barrier") })
		if m.waiters.Len() != 3 { // sibling + the two just queued
			t.Errorf("inside the callback %d waiters are queued, want 3", m.waiters.Len())
		}
	})
	m.NoteErased(0, 3, func() { order = append(order, "sibling") })

	eng.RunUntil(eng.Now() + JournalFlushNs)
	if len(order) != 1 || order[0] != "outer" {
		t.Fatalf("after the first flush ran %v, want [outer]", order)
	}
	// The sibling's record was staged before the callback ran; the
	// callback's record joined the same batch behind it.
	eng.RunUntil(eng.Now() + JournalFlushNs)
	want := []string{"outer", "sibling", "inner", "inner-barrier"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
	recs, _, torn := decodeJournal(m.sys.journal)
	if torn || len(recs) != 3 {
		t.Errorf("journal holds %d records (torn=%v), want 3", len(recs), torn)
	}
}

// A checkpoint whose cutoff covers a waiter releases it at install, even
// though the journal bytes it waited on are still in flight.
func TestWaitersReleasedByCheckpointInstall(t *testing.T) {
	eng, m := waiterFixture(t)
	m.NoteBlockOpened(0, 15, 99) // occupies the flush in progress
	var durableEnd, waitedOn uint64
	var at sim.Time
	ran := 0
	m.NoteErased(0, 1, func() {
		ran++
		durableEnd, at = m.sys.durableEnd(), eng.Now()
	})
	waitedOn = m.appended
	m.CheckpointNow() // cutoff = appended: covers the Erased record
	size := sim.Time(len(m.sys.slots[m.ckpt.slot].data))
	installAt := eng.Now() + CkptBaseNs + CkptNsPerByte*size
	if installAt >= eng.Now()+2*JournalFlushNs {
		t.Fatalf("image of %d bytes is too large for the install to beat the second flush", size)
	}
	eng.RunUntil(eng.Now() + JournalFlushNs)
	if ran != 0 {
		t.Fatal("waiter ran before either its flush or the checkpoint was durable")
	}
	eng.RunUntil(installAt)
	if ran != 1 || at != installAt {
		t.Fatalf("waiter ran %d times at %d, want once at the install (%d)", ran, at, installAt)
	}
	if durableEnd >= waitedOn {
		t.Errorf("journal was durable through %d when the waiter ran, want less than %d (released by the checkpoint)", durableEnd, waitedOn)
	}
	eng.RunUntil(eng.Now() + 2*JournalFlushNs)
	if ran != 1 {
		t.Errorf("waiter ran %d times", ran)
	}
}

// CkptWindows keeps the first few windows only: a server checkpoints
// every 20 ms of device clock for as long as it runs.
func TestCkptWindowsBounded(t *testing.T) {
	eng, m := waiterFixture(t)
	var first [][2]sim.Time
	for i := 1; i < 3*ckptWindowsKept; i++ { // the attach-time checkpoint was the first
		m.CheckpointNow()
		eng.RunWhile(func() bool { return !m.Quiesced() })
		if i == ckptWindowsKept-1 {
			first = m.CkptWindows()
		}
	}
	w := m.CkptWindows()
	if len(w) != ckptWindowsKept || cap(m.ckptWindows) != ckptWindowsKept {
		t.Fatalf("kept %d windows (cap %d), want %d", len(w), cap(m.ckptWindows), ckptWindowsKept)
	}
	for i := range w {
		if w[i] != first[i] {
			t.Fatalf("window %d changed from %v to %v: the kept windows are not the first ones", i, first[i], w[i])
		}
	}
}
