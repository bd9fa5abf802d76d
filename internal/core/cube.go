// Package core implements cubeFTL, the paper's PS-aware flash
// translation layer (§5). It plugs into the generic controller of
// package ftl through the Policy interface and adds the two modules the
// paper introduces:
//
//   - OPM (Optimal Parameter Manager): monitors each h-layer's leading
//     word line — the observed ISPP loop windows and the BER_EP1 health
//     indicator — and derives tightened program parameters (verify-skip
//     plans, V_Start/V_Final margins) for the remaining word lines of
//     the same h-layer, exploiting the horizontal process similarity.
//     It also maintains the ORT: the per-h-layer cache of optimal read
//     reference voltage offsets that slashes read retries.
//
//   - WAM (WL Allocation Manager): watches the write-buffer utilization
//     mu and allocates fast follower word lines under pressure
//     (mu > mu_TH) and slow leader word lines otherwise, over active
//     blocks kept in the fully mixed order (MOS) so followers are
//     plentiful exactly when bursts arrive.
//
// The safety check of §4.1.4 is implemented as a program verdict: a
// follower whose post-program BER is far above its h-layer's recent
// history is rejected, and the controller rewrites the data on the next
// word line with fresh monitoring.
package core

import (
	"cubeftl/internal/ftl"
	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/process"
	"cubeftl/internal/ssd"
	"cubeftl/internal/vth"
)

// ORTGranularity selects how read-offset cache entries are keyed — the
// paper uses one entry per physical h-layer; coarser keyings are
// provided for the ablation study.
type ORTGranularity int

const (
	// ORTPerLayer keys the cache by (chip, block, h-layer) — §5.1.
	ORTPerLayer ORTGranularity = iota
	// ORTPerBlock keys by (chip, block), ignoring inter-layer drift
	// differences within a block.
	ORTPerBlock
	// ORTPerChip keys by chip only.
	ORTPerChip
)

// Config tunes cubeFTL.
type Config struct {
	// UseWAM enables workload-aware leader/follower allocation. With it
	// off (and Order horizontal-first) the policy is the paper's
	// cubeFTL- ablation.
	UseWAM bool
	// MuThreshold is mu_TH: buffer utilization above it requests fast
	// follower word lines (paper example: 0.9).
	MuThreshold float64
	// ActiveBlocks is the number of write points per chip (paper: 2).
	ActiveBlocks int
	// Order is the static program order used when WAM is disabled.
	Order ftl.Order
	// SafetyCheck enables the §4.1.4 post-program BER verdict.
	SafetyCheck bool
	// ORT selects the read-offset cache granularity.
	ORT ORTGranularity
	// DisableORT turns every read-offset cache off (the PS-unaware
	// baseline): all reads start the retry ladder at offset 0 and
	// nothing is learned from their outcomes.
	DisableORT bool
	// RetryTable enables the decaying per-(block, h-layer, age-bucket)
	// retry table in front of the ORT (see retry.go).
	RetryTable bool
}

// DefaultConfig returns the paper's cubeFTL configuration.
func DefaultConfig() Config {
	return Config{
		UseWAM:       true,
		MuThreshold:  0.9,
		ActiveBlocks: 2,
		Order:        ftl.OrderMixed,
		SafetyCheck:  true,
		ORT:          ORTPerLayer,
	}
}

// safetyRatio is how far above the h-layer's previous program BER a
// follower may land before it is declared improperly programmed.
const safetyRatio = 2.5

// refBerEP1 is the offline-characterized normalization reference for the
// spare margin S_M (BER_EP1 of the best fresh h-layer).
var refBerEP1 = vth.BerEP1(1e-4)

// MinusConfig returns cubeFTL-: identical except the WAM is disabled
// and allocation follows the horizontal-first order (§6.3).
func MinusConfig() Config {
	c := DefaultConfig()
	c.UseWAM = false
	c.Order = ftl.OrderHorizontalFirst
	return c
}

// layerObs is the OPM's monitoring record for one open h-layer. present
// says a record exists at all; valid, that followers may use it — the
// safety check invalidates a record without removing it, and the two
// states checkpoint differently.
type layerObs struct {
	present bool
	valid   bool
	windows [vth.ProgramStates]process.LoopWindow
	skip    [vth.ProgramStates]int
	startMV int
	finalMV int
	// lastBER is the most recent post-program BER on this h-layer,
	// normalized by the expected parameter penalty of that program so
	// leader and follower measurements compare like for like.
	lastBER float64
}

// expectedPenalty is the offline-characterized BER growth a program's
// parameters are expected to cause (the Fig 10 curve plus a small
// allowance for within-budget skipping). The safety check divides it
// out before comparing against the h-layer's history, so legitimate
// parameter aggressiveness is not mistaken for a failing program.
func expectedPenalty(p nand.ProgramParams) float64 {
	pen := vth.MarginBERPenalty(p.StartMarginMV + p.FinalMarginMV)
	if p.TotalSkips() > 0 {
		pen *= 1.1
	}
	return pen
}

// CubeFTL is the PS-aware policy.
type CubeFTL struct {
	cfg Config
	geo ssd.Geometry

	// The three learned tables are flat and indexed by the key they were
	// always keyed by, opmKey = (chip*BlocksPerChip + block)*Layers +
	// layer, so a lookup is an index and walking a table front to back
	// visits its entries in ascending key order (what a checkpoint
	// writes; see state.go).

	// opm holds one row of per-h-layer records per open block, by
	// chip*BlocksPerChip + block; nil where the block has none. Rows are
	// taken from opmFree on a block's first leader and go back when the
	// block retires, so there are about chips x write points of them.
	opm     []*opmRow
	opmFree pool.FreeList[opmRow]

	// ort is the cached optimal read offset per opmKey, ortAbsent where
	// nothing is cached. The coarse granularities use the key of their
	// block's (or chip's) first h-layer: a subset of the same table.
	ort []int8

	// retry is the decaying age-aware offset cache layered over ort
	// (see retry.go): one row of age buckets per opmKey, nil until the
	// table is turned on. retryLive counts each block's present entries.
	retry     []retryRow
	retryLive []int32
	readSeq   uint64 // monotonic ObserveRead counter driving decay
	// decayReads is retryDecayReads; the package's tests shorten it to
	// reach decay in a few reads.
	decayReads uint64
	// ageFn resolves a block's retention-age bucket for retry lookups;
	// nil keys every block to bucket 0.
	ageFn func(chip, block int) int

	stats CubeStats
}

// opmRow is one open block's OPM records, one per h-layer.
type opmRow struct {
	obs []layerObs
}

// ortAbsent marks an ORT slot that caches nothing (offset levels are
// never negative).
const ortAbsent int8 = -1

// CubeStats is the policy's ledger (metrics.Walk): the PS-aware
// decision counters, counted in place, and the two table sizes.
type CubeStats struct {
	LeaderPrograms   int64 `metric:"-"`
	FollowerPrograms int64 `metric:"-"`
	SafetyRejects    int64 `metric:"-"`
	ORTHits          int64 `metric:"cube/ort/hits gauge reads that started from a cached ORT offset"`
	ORTMisses        int64 `metric:"cube/ort/misses gauge reads that found no ORT entry"`
	// ORTBytes is the ORT's footprint at the paper's encoding (§5.1).
	ORTBytes int64 `metric:"-"`

	// Retry-table counters (zero unless Config.RetryTable is on).
	RetryHits    int64 `metric:"cube/retry/hits gauge fresh retry-table entries served"`
	RetryStale   int64 `metric:"cube/retry/stale gauge retry-table entries expired by decay on lookup"`
	RetryMisses  int64 `metric:"cube/retry/misses gauge retry-table lookups that fell through to the ORT"`
	RetryEntries int64 `metric:"cube/retry/entries gauge live retry-table entries"`
}

// NewCubeFTL builds the policy for a device geometry.
func NewCubeFTL(geo ssd.Geometry, cfg Config) *CubeFTL {
	if cfg.MuThreshold <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.ActiveBlocks < 1 {
		cfg.ActiveBlocks = 1
	}
	blocks := geo.Chips * geo.BlocksPerChip
	f := &CubeFTL{
		cfg:        cfg,
		geo:        geo,
		opm:        make([]*opmRow, blocks),
		ort:        make([]int8, blocks*geo.Layers),
		decayReads: retryDecayReads,
	}
	fillAbsent(f.ort)
	if cfg.RetryTable {
		f.makeRetryTable()
	}
	f.stats.ORTBytes = f.ORTBytes()
	return f
}

func fillAbsent(ort []int8) {
	for i := range ort {
		ort[i] = ortAbsent
	}
}

// New returns the paper's cubeFTL over a device geometry.
func New(geo ssd.Geometry) *CubeFTL { return NewCubeFTL(geo, DefaultConfig()) }

// NewMinus returns cubeFTL- (WAM disabled).
func NewMinus(geo ssd.Geometry) *CubeFTL { return NewCubeFTL(geo, MinusConfig()) }

// Name implements ftl.Policy.
func (f *CubeFTL) Name() string {
	if !f.cfg.UseWAM {
		return "cubeFTL-"
	}
	return "cubeFTL"
}

// Config returns the policy configuration.
func (f *CubeFTL) Config() Config { return f.cfg }

// CubeStats returns the live ledger (updated in place); a nil policy —
// the stack of a non-cube FTL — reads as all zeros.
func (f *CubeFTL) CubeStats() *CubeStats {
	if f == nil {
		return new(CubeStats)
	}
	return &f.stats
}

// ActiveBlocksPerChip implements ftl.Policy.
func (f *CubeFTL) ActiveBlocksPerChip() int { return f.cfg.ActiveBlocks }

// blockIndex numbers the device's blocks chip-major: the index of the
// per-block tables.
func (f *CubeFTL) blockIndex(chip, block int) int {
	return chip*f.geo.BlocksPerChip + block
}

func (f *CubeFTL) opmKey(chip, block, layer int) int {
	return f.blockIndex(chip, block)*f.geo.Layers + layer
}

func (f *CubeFTL) ortKey(chip, block, layer int) int {
	switch f.cfg.ORT {
	case ORTPerBlock:
		return f.opmKey(chip, block, 0)
	case ORTPerChip:
		return f.opmKey(chip, 0, 0)
	default:
		return f.opmKey(chip, block, layer)
	}
}

// SelectWL implements ftl.Policy: the WAM's adaptive allocation (Fig 16).
func (f *CubeFTL) SelectWL(_ int, actives []*ftl.BlockCursor, util float64) (int, int, int, bool) {
	if !f.cfg.UseWAM {
		for i, cur := range actives {
			if l, w, ok := cur.NextInOrder(f.cfg.Order); ok {
				return i, l, w, true
			}
		}
		return 0, 0, 0, false
	}
	if util > f.cfg.MuThreshold {
		// High write-bandwidth demand: serve from fast followers.
		if i, l, w, ok := findFollower(actives); ok {
			return i, l, w, true
		}
		if i, l, ok := findLeader(actives); ok {
			return i, l, 0, true
		}
		return 0, 0, 0, false
	}
	// Normal demand: spend slow leader word lines, keeping followers in
	// reserve for the next burst.
	if i, l, ok := findLeader(actives); ok {
		return i, l, 0, true
	}
	if i, l, w, ok := findFollower(actives); ok {
		return i, l, w, true
	}
	return 0, 0, 0, false
}

func findLeader(actives []*ftl.BlockCursor) (idx, layer int, ok bool) {
	for i, cur := range actives {
		if l := cur.LeaderLayer(); l >= 0 {
			return i, l, true
		}
	}
	return 0, 0, false
}

func findFollower(actives []*ftl.BlockCursor) (idx, layer, wl int, ok bool) {
	for i, cur := range actives {
		if l, w := cur.FollowerSlot(); l >= 0 {
			return i, l, w, true
		}
	}
	return 0, 0, 0, false
}

// ProgramParams implements ftl.Policy: default parameters for leader
// word lines (no measurement exists yet for the h-layer), tightened
// parameters for followers (§5.1).
func (f *CubeFTL) ProgramParams(chip, block, layer, _ int) nand.ProgramParams {
	row := f.opm[f.blockIndex(chip, block)]
	if row == nil || !row.obs[layer].valid {
		return nand.ProgramParams{}
	}
	obs := &row.obs[layer]
	var p nand.ProgramParams
	p.SkipVFY = obs.skip
	p.StartMarginMV = obs.startMV
	p.FinalMarginMV = obs.finalMV
	return p
}

// ObserveProgram implements ftl.Policy: leader monitoring, follower
// bookkeeping, and the safety check.
func (f *CubeFTL) ObserveProgram(chip, block, layer, _ int, params nand.ProgramParams, res *nand.ProgramResult) ftl.ProgramVerdict {
	bi := f.blockIndex(chip, block)
	row := f.opm[bi]
	if row == nil || !row.obs[layer].valid {
		// Leader program: derive the follower plan from what was
		// monitored (§4.1.1, §4.1.2).
		f.stats.LeaderPrograms++
		if row == nil {
			row = f.takeOPMRow()
			f.opm[bi] = row
		}
		o := &row.obs[layer]
		*o = layerObs{present: true, valid: true, windows: res.Windows, lastBER: res.MeasuredBER}
		sm := vth.SpareMargin(res.BerEP1, refBerEP1)
		total := vth.SMToMarginMV(sm)
		if total < vth.DeltaVISPPmV {
			// Sub-loop margins save no ISPP loop; not worth the
			// Set-Features load.
			total = 0
		}
		o.startMV, o.finalMV = vth.SplitMargin(total)
		startLoops := vth.LoopsSaved(o.startMV)
		for i, w := range res.Windows {
			if skip := w.MinLoop - startLoops - 1; skip > 0 {
				o.skip[i] = skip
			}
		}
		if f.cfg.SafetyCheck && res.Suspect {
			// Even a leader can be hit by a disturbance; its
			// measurements must not seed followers.
			o.valid = false
			f.stats.SafetyRejects++
			return ftl.VerdictReprogram
		}
		return ftl.VerdictOK
	}

	// Follower program: normalize the measurement by the penalty the
	// parameters it actually ran with are expected to cause.
	obs := &row.obs[layer]
	f.stats.FollowerPrograms++
	normBER := res.MeasuredBER / expectedPenalty(params)
	if f.cfg.SafetyCheck && obs.lastBER > 0 && normBER > safetyRatio*obs.lastBER {
		// §4.1.4: improperly programmed — rewrite the data on the next
		// word line and re-monitor from scratch on this h-layer.
		obs.valid = false
		f.stats.SafetyRejects++
		return ftl.VerdictReprogram
	}
	obs.lastBER = normBER
	return ftl.VerdictOK
}

// ReadStartOffset implements ftl.Policy: the retry-table lookup with
// ORT fallback (§4.2 plus DESIGN.md §15). A fresh retry-table entry for
// the current age bucket wins; a stale one expires on the spot and the
// plain per-h-layer ORT answers instead.
func (f *CubeFTL) ReadStartOffset(chip, block, layer int) int {
	if f.cfg.DisableORT {
		return 0
	}
	if f.cfg.RetryTable {
		bi := f.blockIndex(chip, block)
		if e := &f.retry[f.opmKey(chip, block, layer)][f.bucketOf(chip, block)]; e.present {
			if f.readSeq-e.seq <= f.decayReads {
				f.stats.RetryHits++
				return int(e.offset)
			}
			f.dropRetry(bi, e)
			f.stats.RetryStale++
		} else {
			f.stats.RetryMisses++
		}
	}
	if v := f.ort[f.ortKey(chip, block, layer)]; v != ortAbsent {
		f.stats.ORTHits++
		return int(v)
	}
	f.stats.ORTMisses++
	return 0
}

// ObserveRead implements ftl.Policy: the ORT/retry-table update.
// Successful reads record the offset that decoded; uncorrectable reads
// clear the entries so the next read rebuilds them from the default
// voltages.
func (f *CubeFTL) ObserveRead(chip, block, layer int, res nand.ReadResult, err error) {
	if f.cfg.DisableORT {
		return
	}
	key := f.ortKey(chip, block, layer)
	if f.cfg.RetryTable {
		f.readSeq++
		bi, k, bkt := f.blockIndex(chip, block), f.opmKey(chip, block, layer), f.bucketOf(chip, block)
		if err != nil {
			if e := &f.retry[k][bkt]; e.present {
				f.dropRetry(bi, e)
			}
		} else {
			f.setRetry(bi, k, bkt, retryEntry{present: true, offset: int8(res.OffsetUsed), seq: f.readSeq})
		}
	}
	if err != nil {
		f.ort[key] = ortAbsent
		return
	}
	f.ort[key] = int8(res.OffsetUsed)
}

// takeOPMRow returns an empty OPM row for a block's first leader.
func (f *CubeFTL) takeOPMRow() *opmRow {
	if row := f.opmFree.Get(); row != nil {
		return row
	}
	return &opmRow{obs: make([]layerObs, f.geo.Layers)}
}

// BlockRetired implements ftl.Policy: follower parameters are kept only
// while the block is an open write point (§5.1).
func (f *CubeFTL) BlockRetired(chip, block int) {
	f.retireOPMRow(f.blockIndex(chip, block))
}

// retireOPMRow empties a block's OPM row, if it has one, and releases it.
func (f *CubeFTL) retireOPMRow(bi int) {
	if row := f.opm[bi]; row != nil {
		clear(row.obs)
		f.opmFree.Put(row)
		f.opm[bi] = nil
	}
}

// BlockErased implements ftl.Policy: an erased block's cached read
// offsets describe data that no longer exists.
func (f *CubeFTL) BlockErased(chip, block int) {
	f.BlockRetired(chip, block)
	f.InvalidateBlockRetry(chip, block)
}

// ORTBytes returns the ORT's memory footprint in bytes at the paper's
// encoding (2 bytes per h-layer, §5.1), for the space-overhead report.
func (f *CubeFTL) ORTBytes() int64 {
	switch f.cfg.ORT {
	case ORTPerBlock:
		return 2 * int64(f.geo.Chips) * int64(f.geo.BlocksPerChip)
	case ORTPerChip:
		return 2 * int64(f.geo.Chips)
	default:
		return 2 * int64(f.geo.Chips) * int64(f.geo.BlocksPerChip) * int64(f.geo.Layers)
	}
}

var _ ftl.Policy = (*CubeFTL)(nil)
