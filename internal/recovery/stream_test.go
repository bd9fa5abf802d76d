package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/workload"
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
			if !bytes.Equal(mgr.sys.StateBytes(), referenceImage(ctrl)) {
				t.Errorf("%s: attach-time checkpoint differs from the reference encoder's", name)
			}
		}
	})

	t.Run("post-GC", func(t *testing.T) {
		// Mid-flight first: buffered writes, an open relocation.
		r := newPatchRigFilled(t, 42, 2*sim.Millisecond, 5)
		ctrl, mgr := r.ctrl, r.mgr
		r.writeUntil(3000, func() bool { return ctrl.GCActiveAny() && !ctrl.Drained() })
		if !ctrl.GCActiveAny() {
			t.Fatal("the run never stopped inside a relocation")
		}
		checkStreamedImage(t, "cube mid-run", ctrl)
		r.write(3000)
		if ctrl.Stats().GCCount == 0 {
			t.Fatal("run never collected")
		}
		checkStreamedImage(t, "cube after GC", ctrl)

		t.Run("post-remount", func(t *testing.T) {
			img := mgr.Cut()
			ctrl3, _ := remountFrom(t, 42, img, false)
			checkStreamedImage(t, "remounted", ctrl3)
			mgr3 := Attach(ctrl3, img.System, Options{})
			if !bytes.Equal(mgr3.sys.StateBytes(), referenceImage(ctrl3)) {
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
		"Trim":        {appendTrim(prefix, 3, 56), frame(recTrim, u64(3, 56))},
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
	r := newPatchRigFilled(t, 42, 2*sim.Millisecond, 5)
	mgr, led := r.mgr, NewLedger()
	mgr.ledger = led // audit every acked write of the run
	// The fourth checkpoint, the attach-time one counted: both slots have
	// been written before, so its slot is one whose buffer is being reused.
	r.writeUntil(1<<20, func() bool { return mgr.ckptBusy && r.ckpts == 4 })
	sys := mgr.System()
	if !mgr.ckptBusy || r.ckpts != 4 {
		t.Fatal("the run never stopped inside the fourth checkpoint write")
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

	img := mgr.Cut()
	sys = img.System
	if got := sys.StateBytes(); !bytes.Equal(got, survivor) {
		t.Fatal("StateBytes of the cut's image is not the surviving slot's image")
	}
	ctrl2, rpt := remountFrom(t, 42, img, false)
	if !rpt.UsedCheckpoint {
		t.Fatal("mount ignored the surviving checkpoint")
	}
	if err := Verify(ctrl2, img.Ledger); err != nil {
		t.Fatal(err)
	}
	tornBuf := &sys.slots[torn].data[:1][0]
	mgr2 := Attach(ctrl2, sys, Options{Ledger: img.Ledger})
	if !sys.slots[torn].valid || &sys.slots[torn].data[0] != tornBuf {
		t.Error("post-mount checkpoint did not reuse the torn slot's buffer")
	}
	if !bytes.Equal(sys.slots[other].data, survivor) {
		t.Error("post-mount checkpoint disturbed the slot the mount came up from")
	}
	if !bytes.Equal(mgr2.sys.StateBytes(), referenceImage(ctrl2)) {
		t.Error("post-mount checkpoint differs from the reference encoder's")
	}
}

// StateBytes hands out a copy: later checkpoints overwrite both slots'
// buffers in place, and what a caller was given must not change.
func TestStateBytesDoesNotAliasSlots(t *testing.T) {
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	mgr := Attach(ctrl, NewSystemArea(), Options{CkptIntervalNs: -1})
	got := mgr.sys.StateBytes()
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
	if bytes.Equal(mgr.sys.StateBytes(), keep) {
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

// A page's mapping is committed by its OOB record alone: host writes that
// open no block and erase none append nothing to the journal.
func TestHostWritesAppendNoJournalBytes(t *testing.T) {
	eng, m := waiterFixture(t)
	hammer(t, m.ctrl, 1, 90)
	eng.RunWhile(func() bool { return !m.Quiesced() })
	if st := m.ctrl.Stats(); st.HostPages == 0 || st.GCCount != 0 {
		t.Fatalf("set-up: %d host pages programmed, %d GC cycles; want some and none", st.HostPages, st.GCCount)
	}
	if m.appended != 0 || len(m.sys.journal) != 0 {
		t.Errorf("%d journal bytes appended for %d host pages, want 0", m.appended, m.ctrl.Stats().HostPages)
	}
}

// With GC running, the journal costs a host page a share of its block's
// opening and erase records: on cubeserved's geometry (4x2 dies of 64
// blocks, 100 000 pages prefilled, durable random overwrites at queue
// depth 2) a few hundredths of a byte, where a per-page record was 31.
func TestJournalBytesPerHostPage(t *testing.T) {
	cfg := ssd.DefaultConfig()
	cfg.Channels, cfg.DiesPerChannel, cfg.Chip.Process.BlocksPerChip, cfg.Seed = 4, 2, 64, 1
	dev := ssd.New(sim.NewEngine(), cfg)
	ccfg := ftl.DefaultControllerConfig()
	ccfg.DurableAcks = true
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), ccfg)
	workload.Prefill(ctrl, 100_000)
	m := Attach(ctrl, NewSystemArea(), Options{})
	src, ops, outstanding := rng.New(1), 200_000, 0
	var issue func()
	issue = func() {
		for outstanding < 2 && ops > 0 {
			ops--
			outstanding++
			if err := ctrl.Write(ftl.LPN(src.Intn(100_000)), nil, func() { outstanding--; issue() }); err != nil {
				t.Fatal(err)
			}
		}
	}
	writes := ctrl.Stats().HostWrites
	issue()
	ctrl.Engine().RunWhile(func() bool { return outstanding > 0 || !ctrl.Drained() })
	writes = ctrl.Stats().HostWrites - writes
	perPage := float64(m.appended) / float64(writes)
	t.Logf("%d journal bytes for %d host pages (%d GC cycles): %.3f bytes a page", m.appended, writes, ctrl.Stats().GCCount, perPage)
	if ctrl.Stats().GCCount == 0 || perPage >= 1 {
		t.Errorf("%d GC cycles, %.3f journal bytes a host page; want some, and under one", ctrl.Stats().GCCount, perPage)
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

// patchRig is a part-filled device under a manager, stepped one event at
// a time so that every checkpoint — patched in place or encoded in full —
// is held against the reference encoder at the instant it is written,
// before the controller moves on.
type patchRig struct {
	t     *testing.T
	ctrl  *ftl.Controller
	mgr   *Manager
	src   *rng.Source
	stamp uint64 // of the last checkpoint compared
	ckpts int    // checkpoints compared, the attach-time one included
	full  int    // how many of them were full encodes
	grown int    // how many were patches of an image that lacked pages
}

// newPatchRig prefills the lower 40 % of the logical space; write
// overwrites the lower 30 %, so the pages in between stay mapped and
// untouched and the upper 60 % stays unmapped.
func newPatchRig(t *testing.T, seed uint64, interval sim.Time) *patchRig {
	t.Helper()
	return newPatchRigFilled(t, seed, interval, 4)
}

// newPatchRigFilled is newPatchRig with the lower tenths/10 of the
// logical space prefilled before the manager attaches.
func newPatchRigFilled(t *testing.T, seed uint64, interval sim.Time, tenths int) *patchRig {
	t.Helper()
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(seed))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	workload.Prefill(ctrl, int64(ctrl.LogicalPages()*tenths/10))
	r := &patchRig{t: t, ctrl: ctrl, src: rng.New(seed)}
	r.mgr = Attach(ctrl, NewSystemArea(), Options{CkptIntervalNs: interval})
	r.observe()
	return r
}

// observe compares the image of a checkpoint begun since the last call.
func (r *patchRig) observe() {
	r.t.Helper()
	m := r.mgr
	if m.ckpt.stamp == r.stamp {
		return
	}
	r.stamp = m.ckpt.stamp
	r.ckpts++
	r.full = r.ckpts - m.ckptPatched
	if m.ckpt.grown {
		r.grown++
	}
	if got, want := m.sys.slots[m.ckpt.slot].data, referenceImage(r.ctrl); !bytes.Equal(got, want) {
		r.t.Fatalf("checkpoint %d (stamp %d, %d patched so far): slot image differs from the reference encoder's (%d vs %d bytes)",
			r.ckpts, r.stamp, m.ckptPatched, len(got), len(want))
	}
}

func (r *patchRig) step() {
	r.t.Helper()
	if !r.ctrl.Engine().Step() {
		r.t.Fatal("engine ran dry")
	}
	r.observe()
}

// checkpointNow forces a checkpoint, compares it and runs it durable.
func (r *patchRig) checkpointNow() {
	r.t.Helper()
	r.mgr.CheckpointNow()
	r.observe()
	for !r.mgr.Quiesced() {
		r.step()
	}
}

// write overwrites ops random pages of the lower 30 % at queue depth 16
// and runs until they are all acknowledged.
func (r *patchRig) write(ops int) { r.t.Helper(); r.writeUntil(ops, func() bool { return false }) }

// writeUntil is write, cut short the moment stop holds.
func (r *patchRig) writeUntil(ops int, stop func() bool) {
	r.t.Helper()
	n := r.ctrl.LogicalPages() * 3 / 10
	r.writePages(ops, func() ftl.LPN { return ftl.LPN(r.src.Intn(n)) }, stop)
}

// writeFirst writes each of lpns, none of them stamped yet, in the order
// given and runs until they are all acknowledged.
func (r *patchRig) writeFirst(lpns ...ftl.LPN) {
	r.t.Helper()
	r.writePages(len(lpns), func() ftl.LPN {
		lpn := lpns[0]
		if r.ctrl.StampOf(lpn) != 0 {
			r.t.Fatalf("page %d picked for a first write has a stamp", lpn)
		}
		lpns = lpns[1:]
		return lpn
	}, func() bool { return false })
}

// writePages writes ops pages, each next's, at queue depth 16 and runs
// until they are all acknowledged or stop holds.
func (r *patchRig) writePages(ops int, next func() ftl.LPN, stop func() bool) {
	r.t.Helper()
	outstanding := 0
	var issue func()
	issue = func() {
		for outstanding < 16 && ops > 0 {
			ops--
			outstanding++
			if err := r.ctrl.Write(next(), nil, func() { outstanding--; issue() }); err != nil {
				r.t.Fatalf("write: %v", err)
			}
		}
	}
	issue()
	for (outstanding > 0 || !r.ctrl.Drained()) && !stop() {
		r.step()
	}
}

// pageRange returns the n pages from lpn up.
func pageRange(lpn ftl.LPN, n int) []ftl.LPN {
	out := make([]ftl.LPN, n)
	for i := range out {
		out[i] = lpn + ftl.LPN(i)
	}
	return out
}

// writeThrough keeps overwriting until n more checkpoints have begun.
func (r *patchRig) writeThrough(n int) {
	r.t.Helper()
	for until := r.ckpts + n; r.ckpts < until; {
		r.write(16)
	}
}

// A patched checkpoint is the full encode's image, byte for byte, across
// everything that reaches a slot between two of its writes: overwrites,
// GC relocation, a trim, a retired block's evacuation, the pools and the
// policy state moving under it, and a first write, which grows the set of
// pages the image lists: its record is inserted in each slot's image.
func TestPatchedCheckpointMatchesReference(t *testing.T) {
	r := newPatchRig(t, 11, 2*sim.Millisecond)
	ctrl, mgr := r.ctrl, r.mgr

	// Overwrites with GC running. Only the attach-time checkpoint and the
	// first one into the other slot walk the logical space.
	r.write(6000)
	if ctrl.Stats().GCCount == 0 {
		t.Fatal("overwrite phase never collected")
	}
	if r.ckpts < 50 || r.full != 2 {
		t.Fatalf("overwrite phase: %d checkpoints, %d of them full encodes; want at least 50 and exactly 2", r.ckpts, r.full)
	}
	if mgr.slotLogs[0].patchable != true || mgr.slotLogs[1].patchable != true {
		t.Fatal("steady overwrites left a slot unpatchable")
	}

	// A trim of a page no write touches: both images list it, and go on
	// listing it as a tombstone, so both slots are patched.
	full := r.full
	trimmed := ftl.LPN(ctrl.LogicalPages() * 35 / 100)
	if ctrl.Mapper().Lookup(trimmed) == ssd.UnmappedPPN {
		t.Fatal("page picked for the trim is not mapped")
	}
	ctrl.Trim(trimmed, nil)
	r.writeThrough(6)
	if got := r.full - full; got != 0 {
		t.Fatalf("after a trim: %d full encodes in 6 checkpoints, want none", got)
	}

	// The first write to an unmapped page: once it has landed, both images
	// are a record short, and both are patched.
	full, grown := r.full, r.grown
	fresh := ftl.LPN(ctrl.LogicalPages() / 2)
	if ctrl.Mapper().Lookup(fresh) != ssd.UnmappedPPN {
		t.Fatal("page picked for the first write is already mapped")
	}
	landed := false
	if err := ctrl.Write(fresh, nil, func() { landed = true }); err != nil {
		t.Fatal(err)
	}
	for !landed {
		r.write(16)
	}
	r.writeThrough(6)
	if got := r.full - full; got != 0 {
		t.Fatalf("after a first write: %d full encodes, want none", got)
	}
	if got := r.grown - grown; got != 2 {
		t.Fatalf("after a first write: %d patches inserted its record, want 2 (one per slot)", got)
	}

	// Program failures on one die: blocks retire and their live pages are
	// evacuated — remapped, all of them through NoteMapped. Retired lists
	// and free pools move in the tail; the mapped set does not.
	full, retired := r.full, ctrl.Stats().RetiredBlocks
	ctrl.Device().SetChipFaults(1, nand.FaultConfig{ProgramFailRate: 0.05})
	for i := 0; i < 100 && ctrl.Stats().RetiredBlocks < retired+2; i++ {
		r.write(64)
	}
	ctrl.Device().SetChipFaults(1, nand.FaultConfig{})
	if ctrl.Stats().RetiredBlocks < retired+2 {
		t.Fatal("fault phase retired fewer than two blocks")
	}
	r.writeThrough(4)
	if r.full != full {
		t.Errorf("block retirement cost %d full encodes, want none", r.full-full)
	}
	if err := ctrl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d checkpoints compared, %d patched, %d full", r.ckpts, mgr.ckptPatched, r.full)
}

// A slot's dirty log is bounded: with periodic checkpoints off nothing
// empties it, so it fills, hands the slot back to the full encode and
// stops growing.
func TestDirtyLogOverflowFallsBackToFullEncode(t *testing.T) {
	r := newPatchRig(t, 23, -1)
	mgr := r.mgr
	r.checkpointNow() // the other slot: both are patchable now
	r.write(64)
	r.checkpointNow()
	if mgr.ckptPatched != 1 {
		t.Fatalf("set-up: %d patched checkpoints, want 1", mgr.ckptPatched)
	}

	r.write(dirtyLogCap + dirtyLogCap/4)
	for i, lg := range mgr.slotLogs {
		if lg.patchable || len(lg.dirty) > dirtyLogCap || cap(lg.dirty) != dirtyLogCap {
			t.Fatalf("slot %d after %d mapped pages: patchable=%v, log %d of cap %d; want an overflowed log of cap %d",
				i, dirtyLogCap+dirtyLogCap/4, lg.patchable, len(lg.dirty), cap(lg.dirty), dirtyLogCap)
		}
	}
	r.checkpointNow()
	r.checkpointNow()
	if mgr.ckptPatched != 1 {
		t.Fatalf("overflowed slots were patched (%d patched checkpoints, want still 1)", mgr.ckptPatched)
	}
	r.write(64)
	r.checkpointNow()
	if mgr.ckptPatched != 2 {
		t.Errorf("slot not patchable again after its full encode (%d patched checkpoints, want 2)", mgr.ckptPatched)
	}
}

// A trim and a first write between two encodes of a slot leave the
// mapper's count where the image has it, with a different set of mapped
// pages behind it. The image lists the trimmed page still, as a
// tombstone, so its count is one short of the pages with a stamp: the
// slot is patched, the first write's record inserted, and the image is
// the reference encoder's (observe compares every checkpoint).
func TestTrimAndFirstWriteKeepTheCountNotTheSet(t *testing.T) {
	r := newPatchRig(t, 31, -1)
	ctrl, mgr := r.ctrl, r.mgr
	r.checkpointNow()
	r.write(64)
	r.checkpointNow()
	r.checkpointNow()
	if mgr.ckptPatched != 2 {
		t.Fatalf("set-up: %d patched checkpoints, want 2", mgr.ckptPatched)
	}

	mapped := ctrl.Mapper().Mapped()
	ctrl.Trim(ftl.LPN(ctrl.LogicalPages()*35/100), nil)
	landed := false
	if err := ctrl.Write(ftl.LPN(ctrl.LogicalPages()/2), nil, func() { landed = true }); err != nil {
		t.Fatal(err)
	}
	for !landed || !ctrl.Drained() {
		r.step()
	}
	if ctrl.Mapper().Mapped() != mapped {
		t.Fatalf("mapper counts %d pages, want the %d of before the trim and the write", ctrl.Mapper().Mapped(), mapped)
	}
	r.checkpointNow()
	r.checkpointNow()
	if mgr.ckptPatched != 4 || r.grown != 2 {
		t.Fatalf("%d patched checkpoints, %d of them inserting a record; want 4 and 2", mgr.ckptPatched, r.grown)
	}
	r.write(64)
	r.checkpointNow()
	if mgr.ckptPatched != 5 || r.grown != 2 {
		t.Errorf("%d patched checkpoints, %d of them inserting a record; want 5 and 2", mgr.ckptPatched, r.grown)
	}
}

// A device prefilled under its manager, as a served one is: the image of
// the empty device grows by every page the prefill maps, and after each
// slot's first encode every checkpoint patches it, appending the records
// of the pages mapped since behind the image's last one.
func TestGrowingPatchFromEmpty(t *testing.T) {
	r := newPatchRigFilled(t, 17, 2*sim.Millisecond, 0)
	r.writeFirst(pageRange(0, r.ctrl.LogicalPages()/2)...)
	if r.ckpts < 20 || r.full != 2 || r.grown != r.ckpts-r.full {
		t.Fatalf("prefill under the manager: %d checkpoints, %d full encodes, %d patches of a grown image; want at least 20, 2 and the rest",
			r.ckpts, r.full, r.grown)
	}
	t.Logf("%d checkpoints compared, %d patched, %d full", r.ckpts, r.mgr.ckptPatched, r.full)
}

// First writes below the image's last record land among its records. In
// one interval with trims, overwrites and first writes that are
// overwritten again, below the image's first record, between its records
// and past its last one, each slot's patch merges them in.
func TestGrowingPatchMergesAmongTheRecords(t *testing.T) {
	r := newPatchRigFilled(t, 19, -1, 0)
	ctrl, mgr := r.ctrl, r.mgr
	n := ftl.LPN(ctrl.LogicalPages())
	r.writeFirst(pageRange(n/4, int(n/20))...)
	r.writeFirst(n * 9 / 10)
	r.checkpointNow() // the other slot's first encode
	r.checkpointNow() // this one is patched, past the image's last record
	if r.full != 2 || r.grown != 1 {
		t.Fatalf("set-up: %d full encodes, %d patches of a grown image; want 2 and 1", r.full, r.grown)
	}

	full, patched, grown := r.full, mgr.ckptPatched, r.grown
	ctrl.Trim(n/4+3, nil)
	ctrl.Trim(n/4+10, nil)
	r.write(300) // the lower 30 %: the upper sixth of it mapped, the rest not
	r.writeFirst(n*6/10, n*6/10+1, n*8/10, n-1)
	ctrl.Trim(n*8/10, nil)
	for !ctrl.Drained() {
		r.step()
	}
	r.checkpointNow()
	r.checkpointNow()
	if r.full != full || mgr.ckptPatched != patched+2 || r.grown != grown+2 {
		t.Fatalf("%d full encodes, %d patched, %d patches of a grown image; want 0, 2 and 2",
			r.full-full, mgr.ckptPatched-patched, r.grown-grown)
	}
	if err := ctrl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// A dirty log that overflows while the image grows gives the slot back to
// the full encode all the same, and the slot patches again after it.
func TestDirtyLogOverflowDuringGrowthFallsBackToFullEncode(t *testing.T) {
	r := newPatchRigFilled(t, 29, -1, 0)
	mgr := r.mgr
	r.checkpointNow() // the other slot's first encode
	r.writeFirst(pageRange(0, 64)...)
	r.checkpointNow()
	if mgr.ckptPatched != 1 || r.grown != 1 {
		t.Fatalf("set-up: %d patched checkpoints, %d of a grown image; want 1 and 1", mgr.ckptPatched, r.grown)
	}

	// The lower 30 %: first writes, and overwrites of the pages among them.
	stamped := r.ctrl.StampedPages()
	r.write(dirtyLogCap + dirtyLogCap/4)
	for i, lg := range mgr.slotLogs {
		if lg.patchable || len(lg.dirty) > dirtyLogCap {
			t.Fatalf("slot %d after %d writes: patchable=%v, log %d; want an overflowed log", i, dirtyLogCap+dirtyLogCap/4, lg.patchable, len(lg.dirty))
		}
	}
	if r.ctrl.StampedPages() <= stamped+64 {
		t.Fatalf("%d pages stamped before the overflow, %d after: want the set grown", stamped, r.ctrl.StampedPages())
	}
	r.checkpointNow()
	r.checkpointNow()
	if mgr.ckptPatched != 1 {
		t.Fatalf("overflowed slots were patched (%d patched checkpoints, want still 1)", mgr.ckptPatched)
	}
	r.writeFirst(pageRange(ftl.LPN(r.ctrl.LogicalPages()/2), 64)...)
	r.checkpointNow()
	if mgr.ckptPatched != 2 || r.grown != 2 {
		t.Errorf("slot not patched again after its full encode (%d patched checkpoints, %d of a grown image; want 2 and 2)", mgr.ckptPatched, r.grown)
	}
}

// A power cut in the middle of a patch leaves the slot invalid with its
// buffer half a generation ahead; what the next manager knows about either
// buffer is nothing, so its first write to each is a full encode.
func TestPowerCutMidPatchThenFullEncodes(t *testing.T) {
	r := newPatchRig(t, 42, 2*sim.Millisecond)
	mgr := r.mgr
	r.write(600)
	full := r.full
	r.writeUntil(1<<20, func() bool { return mgr.ckptBusy && r.full == full && mgr.ckptPatched > 3 })
	if !mgr.ckptBusy {
		t.Fatal("never stopped inside the write of a patched checkpoint")
	}
	torn := mgr.ckpt.slot
	img := mgr.Cut()
	sys := img.System
	if sys.slots[torn].valid || !sys.slots[1-torn].valid {
		t.Fatalf("slot validity after the cut: torn=%v other=%v, want false/true", sys.slots[torn].valid, sys.slots[1-torn].valid)
	}

	ctrl2, rpt := remountFrom(t, 42, img, false)
	if !rpt.UsedCheckpoint {
		t.Fatal("mount ignored the surviving checkpoint")
	}
	r2 := &patchRig{t: t, ctrl: ctrl2, src: rng.New(7)}
	r2.mgr = Attach(ctrl2, sys, Options{CkptIntervalNs: -1})
	r2.observe() // into the torn slot
	r2.write(32)
	r2.checkpointNow() // into the slot the mount came up from
	if r2.mgr.ckptPatched != 0 {
		t.Fatalf("remounted manager patched a buffer it never encoded (%d patched of %d)", r2.mgr.ckptPatched, r2.ckpts)
	}
	r2.write(32)
	r2.checkpointNow()
	r2.checkpointNow()
	if r2.mgr.ckptPatched != 2 {
		t.Errorf("%d patched checkpoints once both slots were encoded, want 2", r2.mgr.ckptPatched)
	}
}

// The steady state of a served device: a checkpoint that patches a
// handful of records allocates nothing, in the encoder or around it. One
// that inserts the records of pages written for the first time allocates
// only when its slot's buffer grows: once, by at least a sixteenth of the
// image, tail included.
func TestPatchedCheckpointAllocs(t *testing.T) {
	r := newPatchRig(t, 5, -1)
	r.checkpointNow()
	r.write(200)
	r.checkpointNow()
	r.checkpointNow()

	dirty := make([]ftl.LPN, 0, 64)
	for lpn := ftl.LPN(0); len(dirty) < cap(dirty); lpn += 3 {
		dirty = append(dirty, lpn)
	}
	var enc ckptEncoder
	img := enc.appendCheckpoint(nil, r.ctrl)
	if n := testing.AllocsPerRun(20, func() { img = enc.patchCheckpoint(img, enc.bodyCRC, r.ctrl, dirty) }); n != 0 {
		t.Errorf("patching %d records: %.1f allocations, want 0", len(dirty), n)
	}
	if !bytes.Equal(img, referenceImage(r.ctrl)) {
		t.Error("image patched twenty times over differs from the reference encoder's")
	}

	patched := r.mgr.ckptPatched
	eng := r.ctrl.Engine()
	if n := testing.AllocsPerRun(10, func() {
		r.mgr.CheckpointNow()
		eng.RunWhile(func() bool { return !r.mgr.Quiesced() })
	}); n != 0 {
		t.Errorf("patched checkpoint through the manager: %.1f allocations, want 0", n)
	}
	if r.mgr.ckptPatched != patched+11 {
		t.Errorf("%d of 11 measured checkpoints were patched", r.mgr.ckptPatched-patched)
	}

	// Growing: each checkpoint follows 24 first writes. Only the encode is
	// measured, on one P as AllocsPerRun measures and just after a
	// collection, not the writes or the reference comparison. The
	// checkpoints measured above went unobserved.
	r.stamp = r.mgr.ckpt.stamp
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const ckpts = 40
	var ms runtime.MemStats
	next, grown, growths, allocs := ftl.LPN(r.ctrl.LogicalPages()/2), r.grown, 0, uint64(0)
	for i := 0; i < ckpts; i++ {
		r.writeFirst(pageRange(next, 24)...)
		next += 24
		buf := &r.mgr.sys.slots[r.mgr.sys.oldestSlot()].data
		was := cap(*buf)
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		r.mgr.CheckpointNow()
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - before
		if cap(*buf) != was {
			growths++
		}
		r.observe()
		for !r.mgr.Quiesced() {
			r.step()
		}
	}
	if r.grown != grown+ckpts {
		t.Fatalf("%d of %d growing checkpoints were patches of a grown image", r.grown-grown, ckpts)
	}
	// One allocation is the runtime's: appendTail's type assertion to
	// ftl.PolicyStateSaver fills its call site's cache on a random one in
	// 1 024 misses, once for the policy's type (AllocsPerRun's integer
	// average hides it). Under the race detector slices.Grow's
	// append(s, make(...)...) allocates the make too.
	perGrowth := uint64(1)
	if raceEnabled {
		perGrowth = 2
	}
	if growths == 0 || growths >= ckpts/2 || allocs > perGrowth*uint64(growths)+1 {
		t.Errorf("%d growing checkpoints: %d allocations, %d buffer growths; want at most %d allocations a growth, and a growth at most every other checkpoint",
			ckpts, allocs, growths, perGrowth)
	}
	t.Logf("%d growing checkpoints: %d allocations, %d buffer growths", ckpts, allocs, growths)
}

// The first full encode into an empty buffer sizes it once, tail and all
// (on a device whose records outweigh its pools, as any real one's do):
// had the tail's appends outgrown a buffer sized for the records, the
// image would have moved into one at least a quarter larger.
func TestFirstEncodeSizesSlotOnce(t *testing.T) {
	cfg := cutSSDConfig(3)
	cfg.Chip.Process.Layers = 48
	dev := ssd.New(sim.NewEngine(), cfg)
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	workload.Prefill(ctrl, int64(ctrl.LogicalPages()/2))
	var enc ckptEncoder
	img := enc.appendCheckpoint(nil, ctrl)
	records := ckptHeaderBytes + ckptMappings(img)*mappingBytes
	if len(img) <= records || cap(img) >= records+records/8 {
		t.Errorf("image of %d bytes (%d of them header and records) sits in a buffer of %d: want one sized once, a sixteenth over the records",
			len(img), records, cap(img))
	}
}

// The identity the patched CRC stands on: appending n zero bytes to a
// message multiplies its raw CRC by x^(8n), and the raw CRC is linear.
func TestCRCShiftIsAppendingZeros(t *testing.T) {
	src := rng.New(77)
	for i := 0; i < 200; i++ {
		a := make([]byte, src.Intn(64))
		for j := range a {
			a[j] = byte(src.Intn(256))
		}
		n := src.Intn(1 << uint(src.Intn(18)))
		if got, want := crcShift(crcRaw(a), n), crcRaw(append(a[:len(a):len(a)], make([]byte, n)...)); got != want {
			t.Fatalf("crcShift(raw(%d bytes), %d) = %08x, raw of the padded message %08x", len(a), n, got, want)
		}
	}
	// Distances too long to allocate: shifting twice is shifting by the sum.
	for i := 0; i < 200; i++ {
		r := uint32(src.Intn(1<<31))<<1 | 1
		a, b := src.Intn(1<<39), src.Intn(1<<39)
		if got, want := crcShift(crcShift(r, a), b), crcShift(r, a+b); got != want {
			t.Fatalf("crcShift(crcShift(%08x, %d), %d) = %08x, crcShift by the sum %08x", r, a, b, got, want)
		}
	}
	// Linearity, as patchCheckpoint uses it: rewrite a span in the middle
	// of a message and move its CRC by crcOfChange.
	msg := make([]byte, 5000)
	for j := range msg {
		msg[j] = byte(src.Intn(256))
	}
	for i := 0; i < 200; i++ {
		at, n := src.Intn(len(msg)-mappingBytes), 1+src.Intn(mappingBytes)
		crc := crc32.ChecksumIEEE(msg)
		was := append([]byte(nil), msg[at:at+n]...)
		for j := at; j < at+n; j++ {
			msg[j] = byte(src.Intn(256))
		}
		if got, want := crc^crcOfChange(was, msg[at:at+n], len(msg)-at-n), crc32.ChecksumIEEE(msg); got != want {
			t.Fatalf("span [%d, %d) of %d rewritten: patched CRC %08x, recomputed %08x", at, at+n, len(msg), got, want)
		}
	}
}

// A patched image carries the CRC a pass over all of it would compute,
// whichever records the patch names: none (the header alone), the first,
// the last, one twice, a random handful — each set patched on top of the
// one before it, on a controller that keeps moving in between.
func TestPatchedCRCMatchesRecompute(t *testing.T) {
	r := newPatchRig(t, 13, -1)
	var enc ckptEncoder
	img := enc.appendCheckpoint(nil, r.ctrl)
	var mapped []ftl.LPN
	for lpn := ftl.LPN(0); int(lpn) < r.ctrl.LogicalPages(); lpn++ {
		if r.ctrl.Mapper().Lookup(lpn) != ssd.UnmappedPPN {
			mapped = append(mapped, lpn)
		}
	}
	first, last := mapped[0], mapped[len(mapped)-1]
	sets := [][]ftl.LPN{nil, {first}, {last}, {first, last, first}, {last, last}}
	for i := 0; i < 16; i++ {
		// Short lists move the CRC span by span, long ones sum the body.
		set := make([]ftl.LPN, 1+r.src.Intn(4+36*(i%2)))
		for j := range set {
			set[j] = mapped[r.src.Intn(len(mapped))]
		}
		sets = append(sets, set)
	}
	moved := 0
	for i, set := range sets {
		// Overwrite the set's pages (and so move the header's stamp
		// counter, the pools and the policy state), then patch every page
		// the controller mapped on the way: the set is part of it.
		var dirty []ftl.LPN
		for _, lpn := range set {
			if err := r.ctrl.Write(lpn, nil, func() {}); err != nil {
				t.Fatal(err)
			}
		}
		before := snapshot(r.ctrl)
		r.ctrl.Engine().RunWhile(func() bool { return !r.ctrl.Drained() })
		after := snapshot(r.ctrl)
		for j, m := range after.Mappings {
			if m != before.Mappings[j] {
				dirty = append(dirty, m.LPN)
			}
		}
		dirty = append(dirty, set...) // repeats are legal
		img = enc.patchCheckpoint(img, enc.bodyCRC, r.ctrl, dirty)
		body := img[:len(img)-4]
		if len(dirty)*crcMoveWorthBytes < ckptHeaderBytes+ckptMappings(img)*mappingBytes {
			moved++
		}
		if got, want := binary.LittleEndian.Uint32(img[len(body):]), crc32.ChecksumIEEE(body); got != want {
			t.Fatalf("set %d (%d pages, %d records patched): image carries CRC %08x, its bytes sum to %08x", i, len(set), len(dirty), got, want)
		}
		if !bytes.Equal(img, referenceImage(r.ctrl)) {
			t.Fatalf("set %d: patched image differs from the reference encoder's", i)
		}
	}
	if moved < 8 || len(sets)-moved < 4 {
		t.Errorf("%d of %d patches moved the CRC, the rest summed the body: want both kinds exercised", moved, len(sets))
	}
}
