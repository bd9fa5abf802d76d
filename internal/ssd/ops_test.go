package ssd

import (
	"strings"
	"testing"

	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
)

func newDevice() (*sim.Engine, *Device) {
	eng := sim.NewEngine()
	return eng, New(eng, smallConfig())
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

// A record handed back to its free list must never be stepped again:
// every stage checks that its record is live.
func TestReleasedOpRecordPanicsWhenStepped(t *testing.T) {
	eng, d := newDevice()
	a := nand.Address{Block: 0, Layer: 2, WL: 0}
	var rd *readOp
	d.Program(0, a, nil, nil, nand.ProgramParams{}, func(*nand.ProgramResult, error) {
		d.Read(0, a, nand.ReadParams{}, nil, func(nand.ReadResult, error) {})
		rd = d.readOps.Get() // nothing released yet: the read holds the only record
	})
	eng.Run()
	if rd != nil {
		t.Fatal("free list handed out the record of a read in flight")
	}

	rd = d.readOps.Get()
	pr := d.programOps.Get()
	if rd == nil || pr == nil || rd.live || pr.live {
		t.Fatalf("completed ops did not return dead records: read %+v program %+v", rd, pr)
	}
	if rd.done != nil || rd.pp != nil || pr.done != nil || pr.pages != nil || pr.oob != nil {
		t.Fatal("released records still reference their operation's callbacks or payloads")
	}
	mustPanic(t, "released ssd read op", rd.granted)
	mustPanic(t, "released ssd read op", rd.transferred)
	mustPanic(t, "released ssd program op", pr.planeGranted)
	mustPanic(t, "released ssd program op", pr.programmed)

	d.Erase(0, 3, func(nand.EraseResult, error) {})
	eng.Run()
	mustPanic(t, "released ssd erase op", d.eraseOps.Get().erased)
}

// Completion releases the record before the caller's callback runs, so
// a chain of dependent operations lives on one record per kind.
func TestOpRecordsAreReusedAcrossOperations(t *testing.T) {
	eng, d := newDevice()
	reads := 0
	var next func(i int)
	next = func(i int) {
		if i == 40 {
			return
		}
		a := nand.Address{Block: 1, Layer: i / 4, WL: i % 4}
		d.Program(0, a, nil, nil, nand.ProgramParams{}, func(_ *nand.ProgramResult, err error) {
			if err != nil {
				t.Fatal(err)
			}
			d.Read(0, a, nand.ReadParams{}, nil, func(_ nand.ReadResult, err error) {
				if err != nil {
					t.Fatal(err)
				}
				reads++
				next(i + 1)
			})
		})
	}
	next(0)
	eng.Run()
	if reads != 40 {
		t.Fatalf("completed %d of 40 reads", reads)
	}
	if r, p := d.readOps.Len(), d.programOps.Len(); r != 1 || p != 1 {
		t.Fatalf("a serial chain left %d read and %d program records, want 1 and 1", r, p)
	}
}
