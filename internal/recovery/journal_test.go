package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

func sampleRecords() [][]byte {
	return [][]byte{
		appendBlockOpened(nil, 1, 7, 42),
		appendTrim(nil, 3, 56),
		appendChipBlock(nil, recErased, 0, 5),
		appendChipBlock(nil, recRetired, 2, 11),
		appendDieDegraded(nil, 3),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf []byte
	for _, r := range sampleRecords() {
		buf = append(buf, r...)
	}
	recs, offs, torn := decodeJournal(buf)
	if torn {
		t.Fatal("clean journal reported torn")
	}
	if len(recs) != 5 || len(offs) != 5 {
		t.Fatalf("decoded %d records, want 5", len(recs))
	}
	if offs[0] != 0 {
		t.Errorf("first offset = %d", offs[0])
	}
	want := []record{
		{typ: recBlockOpened, chip: 1, block: 7, seq: 42},
		{typ: recTrim, lpn: 3, stamp: 56},
		{typ: recErased, chip: 0, block: 5},
		{typ: recRetired, chip: 2, block: 11},
		{typ: recDieDegraded, die: 3},
	}
	for i, w := range want {
		if recs[i] != w {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], w)
		}
	}
}

// A power cut mid-flush leaves a torn tail: decoding must stop at the
// last whole record and flag the tear, never misparse garbage.
func TestJournalTornTailDetected(t *testing.T) {
	var buf []byte
	for _, r := range sampleRecords() {
		buf = append(buf, r...)
	}
	full := len(buf)
	// Chop at every possible byte boundary inside the last record.
	last := len(appendDieDegraded(nil, 3))
	for cut := full - last + 1; cut < full; cut++ {
		recs, _, torn := decodeJournal(buf[:cut])
		if !torn {
			t.Fatalf("cut at %d of %d not reported torn", cut, full)
		}
		if len(recs) != 4 {
			t.Fatalf("cut at %d decoded %d records, want 4", cut, len(recs))
		}
	}
}

// A corrupted byte anywhere in a frame must fail that frame's CRC.
func TestJournalCorruptionDetected(t *testing.T) {
	var buf []byte
	for _, r := range sampleRecords() {
		buf = append(buf, r...)
	}
	second := len(appendBlockOpened(nil, 1, 7, 42))
	mid := second + 5 // inside the Trim record
	buf[mid] ^= 0xFF
	recs, _, torn := decodeJournal(buf)
	if !torn {
		t.Fatal("corruption not reported torn")
	}
	if len(recs) != 1 {
		t.Fatalf("decoded %d records past corruption, want 1", len(recs))
	}
}

// ckptGeo is a small device geometry of chips dies for checkpoint
// images built by hand.
func ckptGeo(chips int) ssd.Geometry {
	return ssd.Geometry{Chips: chips, Channels: 1, DiesPerChannel: chips, BlocksPerChip: 8, Layers: 2, WLsPerLayer: 4}
}

func TestCheckpointRoundTrip(t *testing.T) {
	geo := ckptGeo(2)
	ms := ftl.NewMountState(geo)
	ms.LastStamp, ms.LastBlockSeq = 99, 17
	ms.L2P[0], ms.Stamps[0] = 5, 3
	ms.L2P[7], ms.Stamps[7] = 123, 99
	ms.Free = [][]int{{4, 5}, {}}
	ms.Actives = [][]ftl.ActiveRecord{{{Block: 1, Seq: 9}}, {{Block: 0, Seq: 2}, {Block: 3, Seq: 17}}}
	ms.Retired = [][]int{{}, {6}}
	ms.DegradedDies = []bool{false, true}
	policy := []byte("learned-state")
	img := encodeCheckpoint(ms, policy)
	got, gotPolicy, err := decodeCheckpoint(img, geo)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPolicy, policy) {
		t.Errorf("policy bytes = %q", gotPolicy)
	}
	if got.LastStamp != 99 || got.LastBlockSeq != 17 {
		t.Errorf("counters = %d/%d", got.LastStamp, got.LastBlockSeq)
	}
	if !slices.Equal(got.L2P, ms.L2P) || !slices.Equal(got.Stamps, ms.Stamps) {
		t.Errorf("mappings = %v at stamps %v", got.L2P[:8], got.Stamps[:8])
	}
	if len(got.Free[0]) != 2 || got.Free[0][1] != 5 || len(got.Free[1]) != 0 {
		t.Errorf("free = %+v", got.Free)
	}
	if len(got.Actives[1]) != 2 || got.Actives[1][1] != (ftl.ActiveRecord{Block: 3, Seq: 17}) {
		t.Errorf("actives = %+v", got.Actives)
	}
	if len(got.Retired[1]) != 1 || got.Retired[1][0] != 6 {
		t.Errorf("retired = %+v", got.Retired)
	}
	if got.DegradedDies[0] || !got.DegradedDies[1] {
		t.Errorf("degraded = %+v", got.DegradedDies)
	}
	// Same state must serialize identically (byte-identical recovery
	// depends on it).
	if !bytes.Equal(img, encodeCheckpoint(ms, policy)) {
		t.Error("checkpoint encoding is not deterministic")
	}
}

// A torn checkpoint write (any flipped or missing byte) must fail the
// image CRC so mount falls back to the surviving slot.
func TestCheckpointCorruptionDetected(t *testing.T) {
	geo := ckptGeo(1)
	ms := ftl.MountState{
		LastStamp:    1,
		LastBlockSeq: 1,
		Free:         [][]int{{0}},
		Actives:      [][]ftl.ActiveRecord{{}},
		Retired:      [][]int{{}},
		DegradedDies: []bool{false},
	}
	img := encodeCheckpoint(ms, nil)
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { b[4] ^= 1; return b },           // body flip
		func(b []byte) []byte { return b[:len(b)-3] },           // truncated
		func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, // CRC flip
	} {
		bad := mutate(append([]byte(nil), img...))
		if _, _, err := decodeCheckpoint(bad, geo); err == nil {
			t.Error("corrupted checkpoint decoded without error")
		}
	}
	if _, _, err := decodeCheckpoint(img, geo); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	// A mapping count the image cannot back, under a CRC that matches:
	// an error, not a 4-billion-entry allocation.
	bad := append([]byte(nil), img[:len(img)-4]...)
	binary.LittleEndian.PutUint32(bad[4+8+8+4:], 0xFFFFFFFF)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
	if _, _, err := decodeCheckpoint(bad, geo); err == nil {
		t.Error("checkpoint with an impossible mapping count decoded without error")
	}
}

// The decoder refuses what the device cannot hold and what the encoder
// never writes, each under a CRC that matches: a decoded image re-encodes
// to its own bytes, and the mount indexes nothing out of range.
func TestCheckpointDecoderRefusals(t *testing.T) {
	geo := ckptGeo(2)
	ms := ftl.NewMountState(geo)
	ms.LastStamp = 99
	ms.L2P[0], ms.Stamps[0] = 5, 3
	ms.L2P[7], ms.Stamps[7] = ssd.UnmappedPPN, 99 // a tombstone
	ms.Free[0] = []int{4, 5}
	img := encodeCheckpoint(ms, nil)
	if _, _, err := decodeCheckpoint(img, geo); err != nil {
		t.Fatalf("pristine image refused: %v", err)
	}
	le := binary.LittleEndian
	rec := func(i, field int) int { return ckptHeaderBytes + i*mappingBytes + 8*field }
	for name, spoil := range map[string]func(b []byte){
		"LPNs out of order":       func(b []byte) { le.PutUint64(b[rec(1, 0):], 0) },
		"LPN past the logical":    func(b []byte) { le.PutUint64(b[rec(1, 0):], uint64(ftl.LogicalPages(geo))) },
		"negative LPN":            func(b []byte) { le.PutUint64(b[rec(0, 0):], uint64(1<<63)) },
		"PPN past the device":     func(b []byte) { le.PutUint64(b[rec(0, 1):], uint64(geo.PhysPages())) },
		"negative PPN":            func(b []byte) { le.PutUint64(b[rec(0, 1):], uint64(1<<64-2)) },
		"zero stamp":              func(b []byte) { le.PutUint64(b[rec(0, 2):], 0) },
		"stamp past the last":     func(b []byte) { le.PutUint64(b[rec(0, 2):], 100) },
		"chips the device lacks":  func(b []byte) { le.PutUint32(b[ckptHeaderBytes-8:], 3) },
		"block the chip lacks":    func(b []byte) { le.PutUint32(b[rec(2, 0)+4:], uint32(geo.BlocksPerChip)) },
		"unsealed pristine image": nil,
	} {
		bad := append([]byte(nil), img[:len(img)-4]...)
		if spoil != nil {
			spoil(bad)
		}
		bad = le.AppendUint32(bad, crc32.ChecksumIEEE(bad))
		if _, _, err := decodeCheckpoint(bad, geo); (err == nil) != (spoil == nil) {
			t.Errorf("%s: decode error %v", name, err)
		}
	}
}

// A sealed checkpoint whose mapping names a page past the device is
// refused by the decoder, and the mount falls back to a full scan; one
// whose two LPNs claim one page fails the mount with the adopt step's
// error. Neither panics.
func TestMountOfACheckpointTheDeviceCannotHold(t *testing.T) {
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	hammer(t, ctrl, 1, 3000)
	geo := dev.Geometry()
	// Two mapped pages in closed blocks: no spare area scanned at the
	// mount supersedes their mappings.
	var closed []int
	for lpn, ppn := range snapshot(ctrl).L2P {
		if ppn == ssd.UnmappedPPN {
			continue
		}
		chip, block, _, _, _ := geo.DecodePPN(ppn)
		if !slices.ContainsFunc(ctrl.AppendActives(nil, chip), func(a ftl.ActiveRecord) bool { return a.Block == block }) {
			closed = append(closed, lpn)
		}
	}
	if len(closed) < 2 {
		t.Fatalf("%d mapped pages in closed blocks, want 2", len(closed))
	}
	mount := func(spoil func(ms *ftl.MountState)) (MountReport, error) {
		ms := snapshot(ctrl)
		spoil(&ms)
		sys := &SystemArea{slots: [2]ckptSlot{{valid: true, stamp: 1, data: encodeCheckpoint(ms, nil)}}}
		media := ssd.NewWithArray(sim.NewEngine(), dev.Config(), dev.Array().Clone())
		m, rpt, err := Mount(media, core.New(geo), cutCtrlConfig(), sys, MountOptions{})
		if err == nil {
			err = m.CheckConsistency()
		}
		return rpt, err
	}
	rpt, err := mount(func(ms *ftl.MountState) { ms.L2P[closed[0]] = ssd.PPN(geo.PhysPages() + 5) })
	if err != nil || rpt.UsedCheckpoint {
		t.Errorf("a page past the device: mount error %v, checkpoint used %v; want a full scan", err, rpt.UsedCheckpoint)
	}
	_, err = mount(func(ms *ftl.MountState) { ms.L2P[closed[1]] = ms.L2P[closed[0]] })
	if err == nil || !strings.Contains(err.Error(), "maps LPNs") {
		t.Errorf("two LPNs on one page: mount error %v, want the adopt step's", err)
	}
}

// A device keeps one periodic checkpoint chain however often
// CheckpointNow is called: an idle window takes at most a checkpoint an
// interval, and one more for the call that opened it. Each call used to
// start one more chain, as the install of every checkpoint re-armed the
// timer.
func TestCheckpointNowKeepsOneChain(t *testing.T) {
	const interval, window = 2 * sim.Millisecond, 20 * sim.Millisecond
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	hammer(t, ctrl, 1, 300)
	mgr := Attach(ctrl, NewSystemArea(), Options{CkptIntervalNs: interval})
	eng := ctrl.Engine()
	written := func() uint64 { return max(mgr.sys.slots[0].stamp, mgr.sys.slots[1].stamp) }
	var per []uint64
	for range 5 {
		before := written()
		eng.RunUntil(eng.Now() + window)
		per = append(per, written()-before)
		mgr.CheckpointNow()
	}
	for _, n := range per {
		if n == 0 || n > uint64(window/interval)+1 {
			t.Fatalf("checkpoints per %v ns idle window at a %v ns interval: %v, want 1 to %d each",
				window, interval, per, window/interval+1)
		}
	}
}
