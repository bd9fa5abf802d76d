package ftl

import (
	"bytes"
	"testing"

	"cubeftl/internal/nand"
)

// FuzzDecodeOOB feeds the spare-area parser arbitrary bytes. A durable
// write is committed by its page's OOB record — the mount rolls it
// forward from there — so the parser may accept only what putOOB wrote:
// a record it decodes must re-encode to the same bytes.
func FuzzDecodeOOB(f *testing.F) {
	// Real records: the spare areas of a word line of host pages and of a
	// padded one, as the chip stores them.
	eng, dev := faultDevice(3, 8)
	c := NewController(dev, NewPagePolicy(), DefaultControllerConfig())
	for lpn := LPN(0); lpn < 4; lpn++ {
		if err := c.Write(lpn, nil, func() {}); err != nil {
			f.Fatal(err)
		}
	}
	eng.Run()
	for die := 0; die < dev.Dies(); die++ {
		chip := dev.Die(die).NAND
		for page := 0; page < 3; page++ {
			if oob := chip.OOB(nand.Address{Page: page}); oob != nil {
				f.Add(oob)
			}
		}
	}
	f.Add(make([]byte, OOBBytes))
	f.Add(oobMagic[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		lpn, stamp, seq, ok := DecodeOOB(b)
		if !ok {
			return
		}
		again := make([]byte, OOBBytes)
		putOOB(again, lpn, stamp, seq)
		if !bytes.Equal(again, b) {
			t.Fatalf("record %x decodes to (%d, %d, %d), which encodes to %x", b, lpn, stamp, seq, again)
		}
	})
}
