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
