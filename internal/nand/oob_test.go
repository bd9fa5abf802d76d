package nand

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

// The spare arena against the representation it replaced, kept here as
// the oracle: a map from page address to a private copy of its record.

type oobOracle struct {
	recs map[Address][]byte
}

func (o *oobOracle) dropWL(a Address) {
	for p := 0; p < vth.PagesPerWL; p++ {
		delete(o.recs, Address{Block: a.Block, Layer: a.Layer, WL: a.WL, Page: p})
	}
}

func (o *oobOracle) dropBlock(block int) {
	for a := range o.recs {
		if a.Block == block {
			delete(o.recs, a)
		}
	}
}

func smallOOBChip(seed uint64) *Chip {
	cfg := DefaultConfig()
	cfg.Process.BlocksPerChip = 4
	cfg.Process.Layers = 3
	cfg.Process.Seed = seed
	return New(cfg)
}

// checkOOB compares OOB(a) with the oracle for every page address of
// the chip.
func checkOOB(t *testing.T, c *Chip, o *oobOracle, step int, what string) {
	t.Helper()
	p := c.Config().Process
	for b := 0; b < p.BlocksPerChip; b++ {
		for l := 0; l < p.Layers; l++ {
			for w := 0; w < p.WLsPerLayer; w++ {
				for pg := 0; pg < vth.PagesPerWL; pg++ {
					a := Address{Block: b, Layer: l, WL: w, Page: pg}
					got, want := c.OOB(a), o.recs[a]
					if len(want) == 0 {
						want = nil // OOB returns nil for an empty record
					}
					if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("step %d (%s): OOB(%v) = %x, want %x", step, what, a, got, want)
					}
				}
			}
		}
	}
}

func TestSpareArenaMatchesMapOfCopies(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		c := smallOOBChip(seed)
		p := c.Config().Process
		src := rng.New(seed * 977)
		o := &oobOracle{recs: map[Address][]byte{}}
		// Uniform 32-byte records on odd seeds (the FTL's shape: the arena
		// never grows); ragged ones on even seeds, empty records and
		// arena growth included.
		recLen := func() int {
			if seed%2 == 1 {
				return 32
			}
			return src.Intn(70)
		}
		bufs := make([][]byte, vth.PagesPerWL) // reused across programs, as ftl.flushOp does
		for step := 0; step < 1500; step++ {
			a := Address{Block: src.Intn(p.BlocksPerChip), Layer: src.Intn(p.Layers), WL: src.Intn(p.WLsPerLayer)}
			what := ""
			switch r := src.Intn(100); {
			case r < 70: // program, sometimes into an injected status failure, sometimes without OOB
				if c.IsProgrammed(a) || c.IsBadBlock(a.Block) {
					continue
				}
				fail := src.Intn(10) == 0
				if fail {
					c.SetFaults(FaultConfig{ProgramFailAt: []Address{a}})
				}
				var oob [][]byte
				if src.Intn(12) != 0 {
					for i := range bufs {
						bufs[i] = bufs[i][:0]
						for n := recLen(); n > 0; n-- {
							bufs[i] = append(bufs[i], byte(src.Intn(256)))
						}
					}
					oob = bufs
				}
				what = fmt.Sprintf("program %v fail=%v oob=%v", a, fail, oob != nil)
				err := c.ProgramWLOOB(a, nil, oob, ProgramParams{}, new(ProgramResult))
				if fail != errors.Is(err, ErrProgramFail) || (!fail && err != nil) {
					t.Fatalf("step %d (%s): err = %v", step, what, err)
				}
				if err == nil && oob != nil {
					for i, b := range oob {
						o.recs[Address{Block: a.Block, Layer: a.Layer, WL: a.WL, Page: i}] = bytes.Clone(b)
					}
				}
				// The chip copied: scribbling over the caller's buffers
				// changes nothing stored.
				for i := range bufs {
					for j := range bufs[i] {
						bufs[i][j] ^= 0xff
					}
				}
			case r < 82:
				if c.IsBadBlock(a.Block) {
					continue
				}
				what = fmt.Sprintf("erase b%d", a.Block)
				if _, err := c.EraseBlock(a.Block); err != nil {
					t.Fatalf("step %d (%s): %v", step, what, err)
				}
				o.dropBlock(a.Block)
			case r < 92: // power cut mid-program: may hit a programmed word line or an erased one
				what = fmt.Sprintf("cut word line %v", a)
				c.CutWordLine(a)
				o.dropWL(a)
			default: // power cut mid-erase
				what = fmt.Sprintf("cut erase b%d", a.Block)
				c.CutErase(a.Block)
				o.dropBlock(a.Block)
			}
			checkOOB(t, c, o, step, what)
		}
		if len(o.recs) == 0 {
			t.Fatalf("seed %d: the sequence ended with no record stored", seed)
		}
	}
}

// An erased block starts its next life with an empty arena: nothing an
// earlier life stored can come back, whatever the new programs carry.
func TestErasedBlockNeverResurrectsOOB(t *testing.T) {
	c := smallOOBChip(3)
	rec := func(tag byte) [][]byte {
		return [][]byte{bytes.Repeat([]byte{tag}, 32), bytes.Repeat([]byte{tag + 1}, 32), bytes.Repeat([]byte{tag + 2}, 32)}
	}
	first, second := Address{Block: 1, Layer: 0, WL: 0}, Address{Block: 1, Layer: 2, WL: 1}
	for _, a := range []Address{first, second} {
		if err := c.ProgramWLOOB(a, nil, rec(0x10), ProgramParams{}, new(ProgramResult)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.EraseBlock(1); err != nil {
		t.Fatal(err)
	}
	if c.OOB(first) != nil || c.OOB(second) != nil {
		t.Fatal("an erased block still answers OOB")
	}
	// Same word line again, this time without OOB, then its neighbour with.
	if _, err := c.ProgramWL(first, nil, ProgramParams{}); err != nil {
		t.Fatal(err)
	}
	if got := c.OOB(first); got != nil {
		t.Fatalf("a program without OOB resurrected %x", got)
	}
	if err := c.ProgramWLOOB(second, nil, rec(0x40), ProgramParams{}, new(ProgramResult)); err != nil {
		t.Fatal(err)
	}
	second.Page = 2
	if got := c.OOB(second); !bytes.Equal(got, bytes.Repeat([]byte{0x42}, 32)) {
		t.Fatalf("OOB after erase and reprogram = %x", got)
	}
}

// One arena per block, created once: a block's later lives program
// their word lines without allocating. The per-word-line state, one
// entry per word line of the chip, is 24 bytes and holds no pointer, so
// the Go collector never scans the array.
func TestProgramWLOOBAllocs(t *testing.T) {
	if unsafe.Sizeof(wlState{}) > 24 {
		t.Errorf("wlState is %d bytes, want <= 24", unsafe.Sizeof(wlState{}))
	}
	wt := reflect.TypeFor[wlState]()
	for i := range wt.NumField() {
		if f := wt.Field(i); hasPointers(f.Type) {
			t.Errorf("wlState.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
	c := smallOOBChip(5)
	p := c.Config().Process
	oob := [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}
	cycle := func() {
		for l := 0; l < p.Layers; l++ {
			for w := 0; w < p.WLsPerLayer; w++ {
				if err := c.ProgramWLOOB(Address{Block: 2, Layer: l, WL: w}, nil, oob, ProgramParams{}, new(ProgramResult)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := c.EraseBlock(2); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the block's first life creates the arena
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Errorf("a program/erase cycle of a warmed block: %.1f allocations, want 0", n)
	}
	if got, want := cap(c.blocks[2].spare), c.WLsPerBlock()*3*32; got != want {
		t.Errorf("arena capacity = %d, want %d (word lines x uniform records)", got, want)
	}
	if c.blocks[0].spare != nil {
		t.Error("a block never programmed owns an arena")
	}
}

func TestOversizeOOBRecordRejected(t *testing.T) {
	c := smallOOBChip(1)
	a := Address{Block: 0, Layer: 0, WL: 0}
	if err := c.ProgramWLOOB(a, nil, [][]byte{make([]byte, maxOOBRecord+1), nil, nil}, ProgramParams{}, new(ProgramResult)); err == nil {
		t.Fatal("an OOB record longer than the spare area was accepted")
	}
	if c.IsProgrammed(a) {
		t.Fatal("a rejected program left the word line programmed")
	}
}

// hasPointers reports whether a value of type t holds a pointer the Go
// collector would trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return true
	default:
		return false
	}
}
