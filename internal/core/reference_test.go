package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/process"
	"cubeftl/internal/rng"
	"cubeftl/internal/ssd"
	"cubeftl/internal/vth"
)

// refCube is the representation CubeFTL's flat tables replaced, kept as
// the oracle (the pattern of internal/recovery/reference_test.go): OPM,
// ORT and retry table as three Go maps keyed by opmKey, erased one key
// at a time and checkpointed by sorting every key. It carries the
// learned-state half of the policy only — the WAM has no state.
type refCube struct {
	cfg Config
	geo ssd.Geometry

	opm   map[int64]*refObs
	ort   map[int64]int8
	retry map[int64]refRetry

	readSeq    uint64
	decayReads uint64
	ageFn      func(chip, block int) int

	stats CubeStats
}

type refObs struct {
	valid   bool
	windows []process.LoopWindow
	skip    [vth.ProgramStates]int
	startMV int
	finalMV int
	lastBER float64
}

type refRetry struct {
	offset int8
	seq    uint64
}

func newRefCube(geo ssd.Geometry, cfg Config) *refCube {
	return &refCube{cfg: cfg, geo: geo, decayReads: retryDecayReads,
		opm: map[int64]*refObs{}, ort: map[int64]int8{}, retry: map[int64]refRetry{}}
}

func (f *refCube) opmKey(chip, block, layer int) int64 {
	return (int64(chip)*int64(f.geo.BlocksPerChip)+int64(block))*int64(f.geo.Layers) + int64(layer)
}

func (f *refCube) ortKey(chip, block, layer int) int64 {
	switch f.cfg.ORT {
	case ORTPerBlock:
		return f.opmKey(chip, block, 0)
	case ORTPerChip:
		return int64(chip) * int64(f.geo.BlocksPerChip) * int64(f.geo.Layers)
	default:
		return f.opmKey(chip, block, layer)
	}
}

func (f *refCube) retryKey(chip, block, layer int) int64 {
	b := 0
	if f.ageFn != nil {
		b = min(max(f.ageFn(chip, block), 0), RetryAgeBuckets-1)
	}
	return f.opmKey(chip, block, layer)*RetryAgeBuckets + int64(b)
}

func (f *refCube) ProgramParams(chip, block, layer, _ int) nand.ProgramParams {
	obs := f.opm[f.opmKey(chip, block, layer)]
	if obs == nil || !obs.valid {
		return nand.ProgramParams{}
	}
	return nand.ProgramParams{SkipVFY: obs.skip, StartMarginMV: obs.startMV, FinalMarginMV: obs.finalMV}
}

func (f *refCube) ObserveProgram(chip, block, layer, _ int, params nand.ProgramParams, res *nand.ProgramResult) ftl.ProgramVerdict {
	key := f.opmKey(chip, block, layer)
	obs := f.opm[key]
	if obs == nil || !obs.valid {
		f.stats.LeaderPrograms++
		o := &refObs{valid: true, windows: append([]process.LoopWindow(nil), res.Windows[:]...), lastBER: res.MeasuredBER}
		total := vth.SMToMarginMV(vth.SpareMargin(res.BerEP1, refBerEP1))
		if total < vth.DeltaVISPPmV {
			total = 0
		}
		o.startMV, o.finalMV = vth.SplitMargin(total)
		startLoops := vth.LoopsSaved(o.startMV)
		for i, w := range res.Windows {
			if skip := w.MinLoop - startLoops - 1; skip > 0 {
				o.skip[i] = skip
			}
		}
		f.opm[key] = o
		if f.cfg.SafetyCheck && res.Suspect {
			o.valid = false
			f.stats.SafetyRejects++
			return ftl.VerdictReprogram
		}
		return ftl.VerdictOK
	}
	f.stats.FollowerPrograms++
	normBER := res.MeasuredBER / expectedPenalty(params)
	if f.cfg.SafetyCheck && obs.lastBER > 0 && normBER > safetyRatio*obs.lastBER {
		obs.valid = false
		f.stats.SafetyRejects++
		return ftl.VerdictReprogram
	}
	obs.lastBER = normBER
	return ftl.VerdictOK
}

func (f *refCube) ReadStartOffset(chip, block, layer int) int {
	if f.cfg.DisableORT {
		return 0
	}
	if f.cfg.RetryTable {
		key := f.retryKey(chip, block, layer)
		if e, ok := f.retry[key]; ok {
			if f.readSeq-e.seq <= f.decayReads {
				f.stats.RetryHits++
				return int(e.offset)
			}
			delete(f.retry, key)
			f.stats.RetryStale++
		} else {
			f.stats.RetryMisses++
		}
	}
	if v, ok := f.ort[f.ortKey(chip, block, layer)]; ok {
		f.stats.ORTHits++
		return int(v)
	}
	f.stats.ORTMisses++
	return 0
}

func (f *refCube) ObserveRead(chip, block, layer int, res nand.ReadResult, err error) {
	if f.cfg.DisableORT {
		return
	}
	key := f.ortKey(chip, block, layer)
	if f.cfg.RetryTable {
		f.readSeq++
		rkey := f.retryKey(chip, block, layer)
		if err != nil {
			delete(f.retry, rkey)
		} else {
			f.retry[rkey] = refRetry{offset: int8(res.OffsetUsed), seq: f.readSeq}
		}
	}
	if err != nil {
		delete(f.ort, key)
		return
	}
	f.ort[key] = int8(res.OffsetUsed)
}

func (f *refCube) BlockRetired(chip, block int) {
	for l := 0; l < f.geo.Layers; l++ {
		delete(f.opm, f.opmKey(chip, block, l))
	}
}

func (f *refCube) BlockErased(chip, block int) {
	f.BlockRetired(chip, block)
	if len(f.retry) > 0 {
		f.dropBlockRetry(chip, block)
	}
	if f.cfg.ORT != ORTPerLayer {
		return
	}
	for l := 0; l < f.geo.Layers; l++ {
		delete(f.ort, f.ortKey(chip, block, l))
	}
}

func (f *refCube) dropBlockRetry(chip, block int) {
	for l := 0; l < f.geo.Layers; l++ {
		base := f.opmKey(chip, block, l) * RetryAgeBuckets
		for bkt := int64(0); bkt < RetryAgeBuckets; bkt++ {
			delete(f.retry, base+bkt)
		}
	}
}

func (f *refCube) InvalidateBlockRetry(chip, block int) {
	f.dropBlockRetry(chip, block)
	if f.cfg.ORT == ORTPerLayer {
		for l := 0; l < f.geo.Layers; l++ {
			delete(f.ort, f.ortKey(chip, block, l))
		}
	}
}

func refSortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// AppendState is the sorted-map encoder: CubeFTL.AppendState must
// produce these bytes.
func (f *refCube) AppendState(dst []byte) []byte {
	le := binary.LittleEndian
	b := append(dst, policyStateMagic[:]...)

	keys := refSortedKeys(f.opm)
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		obs := f.opm[k]
		b = le.AppendUint64(b, uint64(k))
		if obs.valid {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = le.AppendUint16(b, uint16(len(obs.windows)))
		for _, w := range obs.windows {
			b = le.AppendUint16(b, uint16(w.MinLoop))
			b = le.AppendUint16(b, uint16(w.MaxLoop))
		}
		for _, s := range obs.skip {
			b = le.AppendUint32(b, uint32(int32(s)))
		}
		b = le.AppendUint32(b, uint32(int32(obs.startMV)))
		b = le.AppendUint32(b, uint32(int32(obs.finalMV)))
		b = le.AppendUint64(b, math.Float64bits(obs.lastBER))
	}

	keys = refSortedKeys(f.ort)
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = le.AppendUint64(b, uint64(k))
		b = append(b, byte(f.ort[k]))
	}

	keys = refSortedKeys(f.retry)
	b = le.AppendUint64(b, f.readSeq)
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		e := f.retry[k]
		b = le.AppendUint64(b, uint64(k))
		b = append(b, byte(e.offset))
		b = le.AppendUint64(b, e.seq)
	}
	return b
}

// lockstep is an ftl.Policy that drives a CubeFTL and a refCube with the
// same calls and fails the test the moment they disagree: on a return
// value, on the counters, on the live retry entries or — after every
// call that changes learned state — on the checkpoint bytes.
type lockstep struct {
	t     testing.TB
	cube  *CubeFTL
	ref   *refCube
	calls int
	buf   []byte
}

func newLockstep(t testing.TB, geo ssd.Geometry, cfg Config) *lockstep {
	return &lockstep{t: t, cube: NewCubeFTL(geo, cfg), ref: newRefCube(geo, cfg)}
}

func (ls *lockstep) applyRetrySetup(rs RetrySetup) {
	ls.cube.ApplyRetrySetup(rs)
	ls.ref.cfg.DisableORT, ls.ref.cfg.RetryTable = rs.DisableORT, rs.RetryTable
}

func (ls *lockstep) setAgeBucketFn(fn func(chip, block int) int) {
	ls.cube.SetAgeBucketFn(fn)
	ls.ref.ageFn = fn
}

func (ls *lockstep) check(what string) {
	ls.t.Helper()
	ls.calls++
	// The reference counts decisions; the two table sizes are its maps'.
	want := ls.ref.stats
	want.ORTBytes, want.RetryEntries = ls.cube.ORTBytes(), int64(len(ls.ref.retry))
	if got := *ls.cube.CubeStats(); got != want {
		ls.t.Fatalf("call %d (%s): CubeStats = %+v, reference %+v", ls.calls, what, got, want)
	}
	ls.buf = ls.cube.AppendState(ls.buf[:0])
	if want := ls.ref.AppendState(nil); !bytes.Equal(ls.buf, want) {
		ls.t.Fatalf("call %d (%s): checkpoint differs from the sorted-map encoding (%d vs %d bytes)", ls.calls, what, len(ls.buf), len(want))
	}
}

func (ls *lockstep) Name() string             { return ls.cube.Name() }
func (ls *lockstep) ActiveBlocksPerChip() int { return ls.cube.ActiveBlocksPerChip() }
func (ls *lockstep) SelectWL(chip int, actives []*ftl.BlockCursor, util float64) (int, int, int, bool) {
	return ls.cube.SelectWL(chip, actives, util)
}

func (ls *lockstep) ProgramParams(chip, block, layer, wl int) nand.ProgramParams {
	got, want := ls.cube.ProgramParams(chip, block, layer, wl), ls.ref.ProgramParams(chip, block, layer, wl)
	if got != want {
		ls.t.Fatalf("ProgramParams(%d, %d, %d) = %+v, reference %+v", chip, block, layer, got, want)
	}
	return got
}

func (ls *lockstep) ObserveProgram(chip, block, layer, wl int, params nand.ProgramParams, res *nand.ProgramResult) ftl.ProgramVerdict {
	got, want := ls.cube.ObserveProgram(chip, block, layer, wl, params, res), ls.ref.ObserveProgram(chip, block, layer, wl, params, res)
	if got != want {
		ls.t.Fatalf("ObserveProgram(%d, %d, %d) = %v, reference %v", chip, block, layer, got, want)
	}
	ls.check(fmt.Sprintf("ObserveProgram(%d, %d, %d) suspect=%v", chip, block, layer, res.Suspect))
	return got
}

func (ls *lockstep) ReadStartOffset(chip, block, layer int) int {
	got, want := ls.cube.ReadStartOffset(chip, block, layer), ls.ref.ReadStartOffset(chip, block, layer)
	if got != want {
		ls.t.Fatalf("ReadStartOffset(%d, %d, %d) = %d, reference %d", chip, block, layer, got, want)
	}
	ls.check(fmt.Sprintf("ReadStartOffset(%d, %d, %d)", chip, block, layer)) // a stale entry expires here
	return got
}

func (ls *lockstep) ObserveRead(chip, block, layer int, res nand.ReadResult, err error) {
	ls.cube.ObserveRead(chip, block, layer, res, err)
	ls.ref.ObserveRead(chip, block, layer, res, err)
	ls.check(fmt.Sprintf("ObserveRead(%d, %d, %d) offset=%d err=%v", chip, block, layer, res.OffsetUsed, err))
}

func (ls *lockstep) BlockRetired(chip, block int) {
	ls.cube.BlockRetired(chip, block)
	ls.ref.BlockRetired(chip, block)
	ls.check(fmt.Sprintf("BlockRetired(%d, %d)", chip, block))
}

func (ls *lockstep) BlockErased(chip, block int) {
	ls.cube.BlockErased(chip, block)
	ls.ref.BlockErased(chip, block)
	ls.check(fmt.Sprintf("BlockErased(%d, %d)", chip, block))
}

func (ls *lockstep) invalidateBlockRetry(chip, block int) {
	ls.cube.InvalidateBlockRetry(chip, block)
	ls.ref.InvalidateBlockRetry(chip, block)
	ls.check(fmt.Sprintf("InvalidateBlockRetry(%d, %d)", chip, block))
}

var _ ftl.Policy = (*lockstep)(nil)

// roundTrip restores the cube's checkpoint into a fresh policy of the
// same shape and checks it re-serializes to the same bytes.
func (ls *lockstep) roundTrip() {
	ls.t.Helper()
	blob := ls.cube.AppendState(nil)
	g := NewCubeFTL(ls.cube.geo, ls.cube.cfg)
	if err := g.RestoreState(blob); err != nil {
		ls.t.Fatalf("call %d: RestoreState(AppendState()): %v", ls.calls, err)
	}
	if !bytes.Equal(g.AppendState(nil), blob) || g.CubeStats().RetryEntries != ls.cube.CubeStats().RetryEntries {
		ls.t.Fatalf("call %d: restored state re-serializes differently", ls.calls)
	}
}

func TestFlatTablesMatchMapReference(t *testing.T) {
	geo := ssd.Geometry{Chips: 2, BlocksPerChip: 5, Layers: 4, WLsPerLayer: 4}
	for _, gran := range []ORTGranularity{ORTPerLayer, ORTPerBlock, ORTPerChip} {
		for _, table := range []bool{false, true} {
			t.Run(fmt.Sprintf("ort%d/retry=%v", gran, table), func(t *testing.T) {
				for seed := uint64(1); seed <= 4; seed++ {
					cfg := DefaultConfig()
					cfg.ORT = gran
					ls := newLockstep(t, geo, cfg)
					ls.cube.decayReads, ls.ref.decayReads = 25, 25
					ls.applyRetrySetup(RetrySetup{RetryTable: table})
					src := rng.New(seed*131 + uint64(gran))
					ages := make([]int, geo.Chips*geo.BlocksPerChip)
					perBlock := func(chip, block int) int { return ages[chip*geo.BlocksPerChip+block] }
					for step := 0; step < 3000; step++ {
						chip, block, layer := src.Intn(geo.Chips), src.Intn(geo.BlocksPerChip), src.Intn(geo.Layers)
						switch r := src.Intn(100); {
						case r < 30:
							params := ls.ProgramParams(chip, block, layer, 0)
							res := nand.ProgramResult{
								BerEP1:      1e-5 * (1 + src.Float64()),
								MeasuredBER: 1e-4 * (1 + 4*src.Float64()), // some followers trip the safety ratio
								Suspect:     src.Intn(8) == 0,
							}
							for i := range res.Windows {
								lo := 2 + src.Intn(6)
								res.Windows[i] = process.LoopWindow{MinLoop: lo, MaxLoop: lo + src.Intn(4)}
							}
							ls.ObserveProgram(chip, block, layer, 0, params, &res)
						case r < 55:
							ls.ReadStartOffset(chip, block, layer)
						case r < 80:
							var err error
							if src.Intn(6) == 0 {
								err = nand.ErrUncorrectable
							}
							ls.ObserveRead(chip, block, layer, nand.ReadResult{OffsetUsed: src.Intn(vth.MaxReadOffsetLevel + 1)}, err)
						case r < 85:
							ls.BlockRetired(chip, block)
						case r < 90:
							ls.BlockErased(chip, block)
						case r < 93:
							ls.invalidateBlockRetry(chip, block)
						case r < 96: // an age jump of one block, out-of-range resolver answers included
							ages[chip*geo.BlocksPerChip+block] = src.Intn(RetryAgeBuckets+3) - 1
						case r < 98: // one bucket for every block, out-of-range answers included
							b := src.Intn(RetryAgeBuckets+2) - 1
							ls.setAgeBucketFn(func(int, int) int { return b })
						default: // per-block clocks on and off
							if src.Intn(2) == 0 {
								ls.setAgeBucketFn(perBlock)
							} else {
								ls.setAgeBucketFn(nil)
							}
						}
						if step%250 == 0 {
							ls.roundTrip()
						}
					}
					ls.roundTrip()
					st := ls.cube.CubeStats()
					if st.LeaderPrograms == 0 || st.FollowerPrograms == 0 || st.SafetyRejects == 0 || st.ORTHits == 0 {
						t.Fatalf("sequence too tame: %+v", st)
					}
					if table && (st.RetryHits == 0 || st.RetryStale == 0) {
						t.Fatalf("retry table never hit or never decayed: %+v", st)
					}
				}
			})
		}
	}
}

// A checkpoint image is input: RestoreState refuses what does not fit
// this geometry's tables instead of indexing with it, and leaves the
// policy as it was.
func TestRestoreStateRejectsMalformedImages(t *testing.T) {
	f := learnedPolicy(t)
	good := f.AppendState(nil)
	le := binary.LittleEndian

	// Offsets of the first key of each table in the image.
	const opmRecord = 8 + 1 + 2 + 4*vth.ProgramStates + 4*vth.ProgramStates + 4 + 4 + 8
	nOPM := int(le.Uint32(good[4:]))
	opmKey0 := 8
	ortCount := opmKey0 + nOPM*opmRecord
	nORT := int(le.Uint32(good[ortCount:]))
	ortKey0 := ortCount + 4
	retryCount := ortKey0 + nORT*9 + 8
	nRetry := int(le.Uint32(good[retryCount:]))
	retryKey0 := retryCount + 4
	if nOPM < 2 || nORT < 2 || nRetry < 2 || retryKey0+nRetry*17 != len(good) {
		t.Fatalf("image layout not as assumed: %d OPM, %d ORT, %d retry entries, %d bytes", nOPM, nORT, nRetry, len(good))
	}
	layerKeys := uint64(len(f.ort))

	mutate := func(edit func(b []byte)) []byte {
		b := bytes.Clone(good)
		edit(b)
		return b
	}
	swap := func(at, stride int) func([]byte) {
		return func(b []byte) {
			k0, k1 := le.Uint64(b[at:]), le.Uint64(b[at+stride:])
			le.PutUint64(b[at:], k1)
			le.PutUint64(b[at+stride:], k0)
		}
	}
	cases := map[string][]byte{
		"bad magic":              mutate(func(b []byte) { b[3] = '1' }),
		"trailing byte":          append(bytes.Clone(good), 0),
		"OPM key past the table": mutate(func(b []byte) { le.PutUint64(b[opmKey0+(nOPM-1)*opmRecord:], layerKeys) }),
		"OPM key negative":       mutate(func(b []byte) { le.PutUint64(b[opmKey0:], math.MaxUint64) }),
		"OPM keys descending":    mutate(swap(opmKey0, opmRecord)),
		"OPM key repeated":       mutate(func(b []byte) { copy(b[opmKey0+opmRecord:], b[opmKey0:opmKey0+8]) }),
		"OPM window count":       mutate(func(b []byte) { le.PutUint16(b[opmKey0+9:], vth.ProgramStates+1) }),
		"ORT key past the table": mutate(func(b []byte) { le.PutUint64(b[ortKey0+(nORT-1)*9:], layerKeys) }),
		"ORT keys descending":    mutate(swap(ortKey0, 9)),
		"ORT negative offset":    mutate(func(b []byte) { b[ortKey0+8] = 0xff }),
		"retry key past the table": mutate(func(b []byte) {
			le.PutUint64(b[retryKey0+(nRetry-1)*17:], layerKeys*RetryAgeBuckets)
		}),
		"retry keys descending": mutate(swap(retryKey0, 17)),
		"retry count too large": mutate(func(b []byte) { le.PutUint32(b[retryCount:], uint32(nRetry+1)) }),
		"OPM count huge":        mutate(func(b []byte) { le.PutUint32(b[4:], math.MaxUint32) }),
	}
	for cut := 0; cut < len(good); cut += 1 + len(good)/97 {
		cases[fmt.Sprintf("truncated at %d", cut)] = good[:cut]
	}
	for name, img := range cases {
		if err := f.RestoreState(img); err == nil {
			t.Errorf("%s: restored without error", name)
		}
		if !bytes.Equal(f.AppendState(nil), good) {
			t.Fatalf("%s: a refused image changed the policy's state", name)
		}
	}

	// An image from a larger device does not fit a smaller one.
	small := f.geo
	small.BlocksPerChip /= 2
	if err := New(small).RestoreState(good); err == nil {
		t.Error("an image whose keys exceed the geometry restored without error")
	}
	// And the good image still restores over existing state.
	g := learnedPolicy(t)
	g.ObserveRead(1, 2, 3, nand.ReadResult{OffsetUsed: 6}, nil)
	if err := g.RestoreState(good); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.AppendState(nil), good) {
		t.Error("restoring over learned state did not replace it")
	}
}
