package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"cubeftl/internal/ftl"
)

func sampleRecords() [][]byte {
	return [][]byte{
		appendBlockOpened(nil, 1, 7, 42),
		appendMapped(nil, 9, 1234, 55),
		appendTrim(nil, 3),
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
	if len(recs) != 6 || len(offs) != 6 {
		t.Fatalf("decoded %d records, want 6", len(recs))
	}
	if offs[0] != 0 {
		t.Errorf("first offset = %d", offs[0])
	}
	want := []Record{
		{Type: recBlockOpened, Chip: 1, Block: 7, Seq: 42},
		{Type: recMapped, LPN: 9, PPN: 1234, Stamp: 55},
		{Type: recTrim, LPN: 3},
		{Type: recErased, Chip: 0, Block: 5},
		{Type: recRetired, Chip: 2, Block: 11},
		{Type: recDieDegraded, Die: 3},
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
		if len(recs) != 5 {
			t.Fatalf("cut at %d decoded %d records, want 5", cut, len(recs))
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
	mid := second + 5 // inside the Mapped record
	buf[mid] ^= 0xFF
	recs, _, torn := decodeJournal(buf)
	if !torn {
		t.Fatal("corruption not reported torn")
	}
	if len(recs) != 1 {
		t.Fatalf("decoded %d records past corruption, want 1", len(recs))
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ms := ftl.MountState{
		LastStamp:    99,
		LastBlockSeq: 17,
		Mappings: []ftl.MappingRecord{
			{LPN: 0, PPN: 5, Stamp: 3},
			{LPN: 7, PPN: 123, Stamp: 99},
		},
		Free:         [][]int{{4, 5}, {}},
		Actives:      [][]ftl.ActiveRecord{{{Block: 1, Seq: 9}}, {{Block: 0, Seq: 2}, {Block: 3, Seq: 17}}},
		Retired:      [][]int{{}, {6}},
		DegradedDies: []bool{false, true},
	}
	policy := []byte("learned-state")
	img := encodeCheckpoint(ms, policy)
	got, gotPolicy, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotPolicy, policy) {
		t.Errorf("policy bytes = %q", gotPolicy)
	}
	if got.LastStamp != 99 || got.LastBlockSeq != 17 {
		t.Errorf("counters = %d/%d", got.LastStamp, got.LastBlockSeq)
	}
	if len(got.Mappings) != 2 || got.Mappings[1] != (ftl.MappingRecord{LPN: 7, PPN: 123, Stamp: 99}) {
		t.Errorf("mappings = %+v", got.Mappings)
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
		if _, _, err := decodeCheckpoint(bad); err == nil {
			t.Error("corrupted checkpoint decoded without error")
		}
	}
	if _, _, err := decodeCheckpoint(img); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	// A mapping count the image cannot back, under a CRC that matches:
	// an error, not a 4-billion-entry allocation.
	bad := append([]byte(nil), img[:len(img)-4]...)
	binary.LittleEndian.PutUint32(bad[4+8+8+4:], 0xFFFFFFFF)
	bad = binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(bad))
	if _, _, err := decodeCheckpoint(bad); err == nil {
		t.Error("checkpoint with an impossible mapping count decoded without error")
	}
}
