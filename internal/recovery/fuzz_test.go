package recovery

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// FuzzDecodeCheckpoint feeds decodeCheckpoint arbitrary bytes, as they
// come and sealed with the CRC that gets them past the first check. It
// must answer with an error or with a state the reference encoder turns
// back into the same image — never a panic, never an allocation the
// input's length does not pay for.
func FuzzDecodeCheckpoint(f *testing.F) {
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	fresh := referenceImage(ctrl)
	hammer(f, ctrl, 1, 300)
	used := referenceImage(ctrl)
	for _, img := range [][]byte{fresh, used} {
		f.Add(img)
		f.Add(img[:len(img)-4]) // sealed again by the target
		f.Add(img[:len(img)/2])
	}
	f.Add([]byte{})
	f.Add(ckptMagic[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		sealed := binary.LittleEndian.AppendUint32(append([]byte(nil), b...), crc32.ChecksumIEEE(b))
		for _, img := range [][]byte{b, sealed} {
			ms, policy, err := decodeCheckpoint(img)
			if err != nil {
				continue
			}
			if again := encodeCheckpoint(ms, policy); !bytes.Equal(again, img) {
				t.Fatalf("image of %d bytes decodes, and re-encodes to %d different bytes", len(img), len(again))
			}
		}
	})
}

// FuzzDecodeJournal feeds decodeJournal arbitrary bytes, as they come and
// as the body of one frame sealed with its length and CRC (so every
// payload reaches the record decoder). What it returns must be what the
// bytes say: the records re-encode to exactly the prefix they were read
// from, each at the offset reported, and the journal is torn exactly
// when bytes remain behind that prefix — never a panic, never a record a
// field of which the decoder had to truncate.
func FuzzDecodeJournal(f *testing.F) {
	dev := ssd.New(sim.NewEngine(), cutSSDConfig(3))
	ctrl := ftl.NewController(dev, core.New(dev.Geometry()), cutCtrlConfig())
	mgr := Attach(ctrl, NewSystemArea(), Options{CkptIntervalNs: -1}) // keep the whole journal
	// A few records, whole and torn: the blocks a thousand writes open, and
	// four trims. A long input costs the fuzzer its budget in minimisation.
	hammer(f, ctrl, 1, 1000)
	for lpn := ftl.LPN(0); lpn < 4; lpn++ {
		ctrl.Trim(lpn, nil)
	}
	ctrl.Engine().RunWhile(func() bool { return !mgr.Quiesced() })
	journal := mgr.sys.journal
	if recs, _, torn := decodeJournal(journal); torn || len(recs) != 12 {
		f.Fatalf("seed journal holds %d records (torn %v), want 12", len(recs), torn)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-5])
	f.Add(bytes.Join(sampleRecords(), nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		journals := [][]byte{b}
		if len(b) > 0 && len(b) <= 1<<16 {
			// b[0] the type, the rest the payload.
			sealed := beginFrame(nil, b[0], len(b)-1)
			journals = append(journals, endFrame(append(sealed, b[1:]...), 0))
		}
		for _, j := range journals {
			recs, offs, torn := decodeJournal(j)
			var again []byte
			for i, r := range recs {
				if offs[i] != len(again) {
					t.Fatalf("record %d reported at offset %d, re-encodes at %d", i, offs[i], len(again))
				}
				again = appendRecord(again, r)
			}
			if len(again) > len(j) || !bytes.Equal(again, j[:len(again)]) {
				t.Fatalf("%d records decoded from %x re-encode to %x", len(recs), j, again)
			}
			if torn != (len(again) < len(j)) {
				t.Fatalf("torn = %v with %d of %d bytes decoded", torn, len(again), len(j))
			}
		}
	})
}

// appendRecord is the journal's encoder for a decoded record.
func appendRecord(dst []byte, r record) []byte {
	switch r.typ {
	case recBlockOpened:
		return appendBlockOpened(dst, r.chip, r.block, r.seq)
	case recTrim:
		return appendTrim(dst, r.lpn, r.stamp)
	case recErased, recRetired:
		return appendChipBlock(dst, byte(r.typ), r.chip, r.block)
	case recDieDegraded:
		return appendDieDegraded(dst, r.die)
	}
	panic("recovery: no encoder for record type")
}
