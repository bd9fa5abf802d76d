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

// programFirstWLs programs the first word line of every block of c, with
// 32-byte records when oob is set.
func programFirstWLs(tb testing.TB, c *Chip, oob bool) {
	var recs [][]byte
	if oob {
		recs = [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}
	}
	var res ProgramResult
	for b := 0; b < c.Blocks(); b++ {
		if err := c.ProgramWLOOB(Address{Block: b}, nil, recs, ProgramParams{}, &res); err != nil {
			tb.Fatal(err)
		}
	}
}

// slabChipConfig is a small chip: a slab that set off a collection
// would count the collector's own allocations too.
func slabChipConfig() Config {
	cfg := DefaultConfig()
	cfg.Process.BlocksPerChip, cfg.Process.Layers = 16, 3
	return cfg
}

// A chip's blocks take their spare arenas from one slab, made by the
// chip's first OOB program: the first lives of all its blocks cost one
// allocation, not one per block. A chip programmed without records (a
// device without Recovery) makes no slab at all.
func TestSpareSlabPerChip(t *testing.T) {
	cfg := slabChipConfig()
	chips := make([]*Chip, 6) // AllocsPerRun makes one warm-up call
	for i := range chips {
		chips[i] = New(cfg)
	}
	i := 0
	n := testing.AllocsPerRun(len(chips)-1, func() { programFirstWLs(t, chips[i], true); i++ })
	if n != 1 {
		t.Errorf("first OOB program of every block of a chip: %.1f allocations, want 1 (the slab)", n)
	}
	c := chips[0]
	if got, want := len(c.spare), c.Blocks()*c.WLsPerBlock()*3*32; got != want {
		t.Errorf("slab is %d bytes, want %d (blocks x word lines x uniform records)", got, want)
	}
	for b := 0; b < c.Blocks(); b++ {
		if !c.carved(b) {
			t.Fatalf("block %d's arena is not its share of the slab", b)
		}
	}
	bare := New(cfg)
	programFirstWLs(t, bare, false)
	if bare.spare != nil {
		t.Error("a chip programmed without records made a spare slab")
	}
}

func BenchmarkFirstOOBPrograms(b *testing.B) {
	cfg := slabChipConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := New(cfg)
		b.StartTimer()
		programFirstWLs(b, c, true)
	}
}

// cloneArray is a 2x2 array of the given blocks per die whose every
// block holds records: in its share of the die's slab; in an arena of
// its own because its first records had another total (block 0); or in
// one it moved to when its records outgrew its share (block 1).
func cloneArray(tb testing.TB, blocks int) *Array {
	cfg := testArrayConfig(2, 2)
	cfg.Chip.Process.BlocksPerChip, cfg.Chip.Process.Layers = blocks, 3
	a := NewArray(cfg)
	uniform := [][]byte{make([]byte, 32), make([]byte, 32), make([]byte, 32)}
	odd := [][]byte{make([]byte, 20), nil, nil}
	wide := [][]byte{make([]byte, 40), make([]byte, 40), make([]byte, 40)}
	program := func(c *Chip, a Address, recs [][]byte) {
		if err := c.ProgramWLOOB(a, nil, recs, ProgramParams{}, new(ProgramResult)); err != nil {
			tb.Fatal(err)
		}
	}
	for d := 0; d < a.Dies(); d++ {
		c := a.Die(d)
		for b := c.Blocks() - 1; b > 0; b-- {
			program(c, Address{Block: b}, uniform)
		}
		program(c, Address{Block: 0}, odd)
		for l := 0; l < cfg.Chip.Process.Layers; l++ {
			for w := 0; w < cfg.Chip.Process.WLsPerLayer; w++ {
				if l+w > 0 {
					program(c, Address{Block: 1, Layer: l, WL: w}, wide)
				}
			}
		}
	}
	return a
}

// Array.Clone copies each die's word-line and spare slabs once and
// carves them anew: its allocations grow with the dies, not with the
// blocks (two per block before the slabs). The copy holds what the
// original holds and shares none of it.
func TestCloneAllocs(t *testing.T) {
	// Enough runs that the allocations of a collection the copies set
	// off round away.
	small, large := cloneArray(t, 4), cloneArray(t, 64)
	ns := testing.AllocsPerRun(50, func() { small.Clone() })
	nl := testing.AllocsPerRun(50, func() { large.Clone() })
	if ns != nl {
		t.Errorf("Clone: %.0f allocations at 4 blocks per die, %.0f at 64", ns, nl)
	}
	// Per die: the chip, its two random streams, its ECC engine, the
	// block table and the two slabs, and blocks 0 and 1's own arenas.
	if per := (nl - 2) / float64(large.Dies()); per > 10 {
		t.Errorf("Clone: %.1f allocations per die, want at most 10", per)
	}
	cp := large.Clone()
	for d := 0; d < large.Dies(); d++ {
		orig, c := large.Die(d), cp.Die(d)
		if orig.carved(0) || orig.carved(1) || !orig.carved(2) {
			t.Fatalf("die %d: blocks 0 and 1 do not have arenas of their own, or block 2 no share", d)
		}
		p := orig.Config().Process
		for b := 0; b < orig.Blocks(); b++ {
			if c.carved(b) != orig.carved(b) {
				t.Fatalf("die %d block %d: carved %v in the copy, %v in the original", d, b, c.carved(b), orig.carved(b))
			}
			for wl := 0; wl < p.Layers*p.WLsPerLayer; wl++ {
				for pg := 0; pg < vth.PagesPerWL; pg++ {
					a := Address{Block: b, Layer: wl / p.WLsPerLayer, WL: wl % p.WLsPerLayer, Page: pg}
					if got, want := c.OOB(a), orig.OOB(a); !bytes.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("die %d: OOB(%v) = %x in the copy, %x in the original", d, a, got, want)
					}
				}
			}
		}
		// The copy's programs and erases reach neither the original's
		// word lines nor its arenas.
		for b := 0; b < 3; b++ {
			next := Address{Block: b, Layer: 2, WL: 3}
			if b != 1 {
				if err := c.ProgramWLOOB(next, nil, [][]byte{bytes.Repeat([]byte{7}, 32), nil, nil}, ProgramParams{}, new(ProgramResult)); err != nil {
					t.Fatal(err)
				}
				if orig.IsProgrammed(next) || orig.OOB(next) != nil {
					t.Fatalf("die %d: a program of the copy's block %d reached the original", d, b)
				}
			}
			was := bytes.Clone(orig.OOB(Address{Block: b}))
			if _, err := c.EraseBlock(b); err != nil {
				t.Fatal(err)
			}
			if err := c.ProgramWLOOB(Address{Block: b}, nil, [][]byte{bytes.Repeat([]byte{9}, 32), nil, nil}, ProgramParams{}, new(ProgramResult)); err != nil {
				t.Fatal(err)
			}
			if got := orig.OOB(Address{Block: b}); !bytes.Equal(got, was) {
				t.Fatalf("die %d: an erase and program of the copy's block %d reached the original: %x, want %x", d, b, got, was)
			}
		}
	}
}

func BenchmarkArrayClone(b *testing.B) {
	a := cloneArray(b, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Clone()
	}
}
