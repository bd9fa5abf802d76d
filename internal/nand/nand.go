// Package nand models a 3D TLC NAND flash chip at the micro-operation
// level the paper works at: ISPP program loops with per-state verify
// accounting, read-retry ladders over adjustable read reference
// voltages, block erase, wear, and retention — all on the cubic
// organization (blocks x h-layers x word lines) whose process
// similarity/variability is produced by package process.
//
// The chip exposes the same knobs a real device offers through the
// vendor Set/Get-Features interface (§4.1.4): per-operation parameter
// overrides (verify skip counts, V_Start/V_Final margins, read-offset
// start levels) and post-operation measurements (observed ISPP loop
// windows, BER_EP1, a post-program BER estimate). The FTLs build their
// optimizations purely out of these.
package nand

import (
	"errors"
	"fmt"

	"cubeftl/internal/ecc"
	"cubeftl/internal/process"
	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

// Address locates a word line (and optionally a page within it) on a chip.
type Address struct {
	Block int
	Layer int // h-layer index, 0 = bottom of the stack
	WL    int // word line within the h-layer (v-layer index)
	Page  int // page within the word line (0..2 for TLC); reads only
}

func (a Address) String() string {
	return fmt.Sprintf("b%d/l%d/w%d/p%d", a.Block, a.Layer, a.WL, a.Page)
}

// Config parameterizes a chip.
type Config struct {
	Process   process.Config
	PageBytes int
	// StoreData keeps the actual page payloads so reads can return the
	// written bytes. Disable for large timing-only simulations.
	StoreData bool

	// DecodeLatencyNs is the modeled latency of one ECC decode attempt.
	// Zero (the default) folds decoding into the sense time, which keeps
	// the serial read flow's arithmetic identical to the historical
	// model; the pipelined retry modes set it (typically to
	// ecc.DefaultDecodeLatencyNs) so the sense/decode overlap is real.
	DecodeLatencyNs int64
}

// DefaultConfig returns the paper's chip: 428 blocks x 48 h-layers x
// 4 WLs x 3 pages of 16 KB.
func DefaultConfig() Config {
	return Config{
		Process:   process.DefaultConfig(),
		PageBytes: 16 * 1024,
		StoreData: false,
	}
}

// Validation and addressing errors.
var (
	ErrBadAddress    = errors.New("nand: address out of range")
	ErrNotErased     = errors.New("nand: programming a non-erased word line")
	ErrNotProgrammed = errors.New("nand: reading an unprogrammed word line")
	ErrUncorrectable = errors.New("nand: uncorrectable page after exhausting read retries")
)

// wlState tracks one programmed word line. It is 24 bytes and holds no
// pointer: a chip holds one per word line in one slab (Chip.wls, carved
// per block), which the Go collector need not scan, and the load of
// programmed is the first thing every page read does. The word line's
// payloads, when the chip stores data, are in its block's payload slab.
type wlState struct {
	paramPenalty float64 // BER multiplier from aggressive program parameters

	// The word line's per-page out-of-band (spare area) records live
	// back to back in the block's spare arena (blockState.spare) from
	// oobOff on, oobLen[i] bytes for page i; hasOOB says whether there
	// are any. Unlike payloads they are kept even when the chip does not
	// store data: the recovery subsystem reconstructs the L2P mapping
	// from them after a power cut.
	oobOff uint32
	oobLen [vth.PagesPerWL]uint16
	hasOOB bool

	programmed bool
	// partial marks a word line whose program was interrupted by a
	// power cut: the cells hold an indeterminate charge pattern, any
	// read fails ECC, and the OOB is unreadable.
	partial bool
}

// maxOOBRecord is the longest spare-area record one page can carry
// (wlState.oobLen is 16 bits; a real 16 KB page has 1-2 KB of spare).
const maxOOBRecord = 1<<16 - 1

type blockState struct {
	pe int
	// wls is the block's share of the chip's word-line slab (Chip.wls).
	wls []wlState
	// pages is the block's payload slab under StoreData: page i of word
	// line w at w*vth.PagesPerWL+i, nil where no payload is stored. It is
	// made by the block's first program and cleared, not freed, by an
	// erase; a chip that does not store data never makes one.
	pages [][]byte
	// spare is the block's spare arena: the OOB records of its word
	// lines, appended in program order. The block's first OOB program
	// sizes it for every word line to carry records of that first word
	// line's total length (the FTL's are uniform, so it never grows):
	// the block's share of the chip's spare slab when that length is the
	// chip's, else an arena of its own. An erase truncates it, never
	// frees it.
	spare  []byte
	erased bool
	// bad marks a block unusable (factory mark or grown failure);
	// program and erase operations against it fail with ErrBadBlock.
	bad        bool
	factoryBad bool
	// reads counts page reads since the last erase; pass-through
	// voltages on unselected word lines slowly disturb the whole block
	// (read disturb), so heavily re-read blocks need a reclaim
	// relocation before their BER drifts into the ECC budget.
	reads int64
	// retMonths is the block's data-retention clock in months: how long
	// the current contents have sat since they were programmed. The
	// lifetime fast-forward advances it; an erase resets it, which is
	// exactly why a refresh relocation restores read margins.
	retMonths float64
	// terms caches the transcendental terms of the block's aging state
	// for the read path (process.ReadTerms); ReadPage revalidates it
	// against the block's current wear and retention on every read.
	terms process.ReadTerms
}

// Chip is one simulated 3D NAND die. Not safe for concurrent use; the
// discrete-event simulation is single-threaded.
type Chip struct {
	cfg    Config
	model  *process.Model
	eccEng *ecc.Engine
	src    *rng.Source

	blocks []blockState
	// wls is the word-line state of every block, one slab per chip carved
	// into the blocks' wls. spare is the chip's spare slab, made by its
	// first OOB program: spareStride bytes per block, the word lines of a
	// block times that program's record total, each block's share carved
	// out when its own first OOB program has the same total (carveSpare).
	// A chip never programmed with records has none.
	wls         []wlState
	spare       []byte
	spareStride int

	// fixedRetention, when >= 0, is the retention age (months) applied
	// to every programmed word line, reproducing the paper's pre-aged
	// evaluation states. Negative means "no retention" (0 months).
	fixedRetention float64

	// disturbProb is the per-program probability of an environmental
	// disturbance (e.g. a sudden ambient temperature surge, §4.1.4)
	// that invalidates leader-derived parameters for that operation.
	disturbProb float64

	// readJitterProb is the per-read probability that environmental
	// factors (temperature, RTN) shift the momentary optimal read
	// offset by one level — the cause of the occasional ORT
	// mispredictions the paper mentions (§4.2).
	readJitterProb float64

	// faults is the installed fault-injection config (zero = none);
	// faultSrc is its dedicated randomness stream, derived from the
	// chip seed so fault sequences are reproducible and independent of
	// every other consumer.
	faults   FaultConfig
	faultSrc *rng.Source

	// Counters for reporting.
	stats Stats
}

// Stats aggregates per-chip operation counters.
type Stats struct {
	Programs        int64
	ProgramLoops    int64
	Verifies        int64
	VerifiesSkipped int64
	Reads           int64
	ReadRetries     int64
	ReadFailures    int64
	Erases          int64
	Reprograms      int64 // programs flagged suspect by their measured BER

	// Injected-fault counters (zero unless SetFaults armed the chip).
	ProgramFails int64 // program-status failures
	EraseFails   int64 // erase failures (each grows a bad block)
	ReadFaults   int64 // transient read faults

	// ARSenses counts senses that AR terminated early (RetryPipelinedAR
	// reads whose sampled margin cleared ecc.ARMarginBits).
	ARSenses int64
}

// New builds a chip from cfg. The chip's randomness (ECC sampling,
// measurement noise, disturbances) derives from cfg.Process.Seed.
func New(cfg Config) *Chip {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = DefaultConfig().PageBytes
	}
	m := process.NewModel(cfg.Process)
	src := rng.New(cfg.Process.Seed).Derive("nand/chip")
	c := &Chip{
		cfg:            cfg,
		model:          m,
		eccEng:         ecc.NewEngine(src.Derive("ecc")),
		src:            src.Derive("ops"),
		faultSrc:       src.Derive("faults"),
		fixedRetention: -1,
	}
	c.blocks = make([]blockState, cfg.Process.BlocksPerChip)
	for b := range c.blocks {
		c.blocks[b].erased = true
	}
	c.wls = make([]wlState, len(c.blocks)*c.WLsPerBlock())
	c.carveWLs()
	return c
}

// carveWLs points every block's wls at its share of the chip's slab.
func (c *Chip) carveWLs() {
	n := c.WLsPerBlock()
	for b := range c.blocks {
		c.blocks[b].wls = c.wls[b*n : (b+1)*n : (b+1)*n]
	}
}

// Config returns the chip configuration.
func (c *Chip) Config() Config { return c.cfg }

// Model exposes the chip's process model (used by characterization
// experiments, as a real study would use a test board).
func (c *Chip) Model() *process.Model { return c.model }

// Stats returns a copy of the operation counters.
func (c *Chip) Stats() Stats { return c.stats }

// Geometry helpers.

// WLsPerBlock returns word lines per block.
func (c *Chip) WLsPerBlock() int {
	return c.cfg.Process.Layers * c.cfg.Process.WLsPerLayer
}

// PagesPerBlock returns logical pages per block.
func (c *Chip) PagesPerBlock() int { return c.WLsPerBlock() * vth.PagesPerWL }

// Blocks returns the number of blocks on the chip.
func (c *Chip) Blocks() int { return c.cfg.Process.BlocksPerChip }

func (c *Chip) wlIndex(a Address) int {
	return a.Layer*c.cfg.Process.WLsPerLayer + a.WL
}

func (c *Chip) checkAddr(a Address) error {
	p := c.cfg.Process
	if a.Block < 0 || a.Block >= p.BlocksPerChip ||
		a.Layer < 0 || a.Layer >= p.Layers ||
		a.WL < 0 || a.WL >= p.WLsPerLayer ||
		a.Page < 0 || a.Page >= vth.PagesPerWL {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	return nil
}

// SetPECycles pre-ages a block to n program/erase cycles (experiment
// setup; the paper pre-cycles blocks to 2K before aged measurements).
func (c *Chip) SetPECycles(block, n int) {
	c.blocks[block].pe = n
}

// PECycles returns a block's current P/E cycle count.
func (c *Chip) PECycles(block int) int { return c.blocks[block].pe }

// SetFixedRetention makes every read see the given retention age in
// months, reproducing the paper's pre-aged states (§6.2). Pass a
// negative value to return to zero retention.
func (c *Chip) SetFixedRetention(months float64) { c.fixedRetention = months }

// AdvanceRetention advances a block's data-retention clock by dMonths
// (lifetime fast-forward). Negative deltas are ignored.
func (c *Chip) AdvanceRetention(block int, dMonths float64) {
	if dMonths > 0 {
		c.blocks[block].retMonths += dMonths
	}
}

// RetentionMonths returns a block's own retention clock, ignoring any
// chip-wide fixed override. Refresh decisions use this: the clock
// resets on erase, so a refreshed block stops qualifying.
func (c *Chip) RetentionMonths(block int) float64 { return c.blocks[block].retMonths }

// EffectiveRetentionMonths returns the retention age reads of the block
// actually experience: the fixed chip-wide override when set, else the
// block's own clock. This is what retry-table age bucketing keys on.
func (c *Chip) EffectiveRetentionMonths(block int) float64 {
	return c.aging(block).RetentionMonths
}

// AddPECycles adds n program/erase cycles of wear to a block without
// touching its contents (lifetime fast-forward).
func (c *Chip) AddPECycles(block, n int) {
	if n > 0 {
		c.blocks[block].pe += n
	}
}

// BlockPredictedBER returns the model BER of the block's worst h-layer
// at its wear and its own retention clock — the scrubber's patrol
// estimate of how close the block is to the ECC cliff. It deliberately
// uses retMonths rather than the chip-wide fixed override (a pinned
// override never resets on erase, so a scrubber keyed to it would
// refresh the same blocks forever) and excludes per-word-line program
// penalties and read disturb: those are handled by reprogram-on-suspect
// and reclaim respectively.
func (c *Chip) BlockPredictedBER(block int) float64 {
	worst := 0.0
	ag := process.Aging{PE: c.blocks[block].pe, RetentionMonths: c.blocks[block].retMonths}
	for l := 0; l < c.cfg.Process.Layers; l++ {
		if b := c.model.BER(block, l, 0, ag); b > worst {
			worst = b
		}
	}
	return worst
}

// SetDisturbProb sets the per-program probability of an environmental
// disturbance (0 disables, the default).
func (c *Chip) SetDisturbProb(p float64) { c.disturbProb = p }

// SetReadJitterProb sets the per-read probability of a one-level
// momentary shift of the optimal read offset (0 disables).
func (c *Chip) SetReadJitterProb(p float64) { c.readJitterProb = p }

// aging returns the aging state applied to accesses of a block: the
// chip-wide fixed retention override when set (the paper's pre-aged
// evaluation states), else the block's own retention clock.
func (c *Chip) aging(block int) process.Aging {
	ret := c.fixedRetention
	if ret < 0 {
		ret = c.blocks[block].retMonths
	}
	return process.Aging{PE: c.blocks[block].pe, RetentionMonths: ret}
}

// Aging exposes the effective aging state of a block (test hooks and
// characterization runs).
func (c *Chip) Aging(block int) process.Aging { return c.aging(block) }

// IsProgrammed reports whether the word line holding a has been written
// since the last erase of its block.
func (c *Chip) IsProgrammed(a Address) bool {
	if c.checkAddr(a) != nil {
		return false
	}
	return c.blocks[a.Block].wls[c.wlIndex(a)].programmed
}

// storedBER applies a word line's program-parameter penalty and its
// block's accumulated read disturb to the word line's model BER.
func storedBER(modelBER float64, st *wlState, blk *blockState) float64 {
	pen := st.paramPenalty
	if pen == 0 {
		pen = 1
	}
	return modelBER * pen * readDisturbPenalty(blk.reads)
}

// ReadDisturbBudget is the per-block read count at which disturb has
// roughly doubled the stored BER — the point a controller should
// reclaim the block (relocate and erase).
const ReadDisturbBudget = 100_000

// readDisturbPenalty is the multiplicative BER growth from accumulated
// reads since the last erase: negligible for cold blocks, ~2x at the
// reclaim budget, and accelerating past it.
func readDisturbPenalty(reads int64) float64 {
	x := float64(reads) / ReadDisturbBudget
	return 1 + x*x
}

// BlockReads returns a block's read count since its last erase.
func (c *Chip) BlockReads(block int) int64 { return c.blocks[block].reads }

// SampleRetentionErrors samples N_ret(w, x, t): the number of retention
// bit errors over the word line's three pages under an explicit aging
// state. This is the measurement primitive of the §3 characterization
// study.
func (c *Chip) SampleRetentionErrors(a Address, ag process.Aging) int {
	ber := c.model.BER(a.Block, a.Layer, a.WL, ag)
	bits := c.cfg.PageBytes * 8 * vth.PagesPerWL
	return c.src.Binomial(bits, ber)
}

// SampleBerEP1Errors samples the E<->P1 error count of a word line — the
// health-indicator measurement of §4.1.2 (Fig 11(a)).
func (c *Chip) SampleBerEP1Errors(a Address, ag process.Aging) int {
	ber := vth.BerEP1(c.model.BER(a.Block, a.Layer, a.WL, ag))
	bits := c.cfg.PageBytes * 8 * vth.PagesPerWL
	return c.src.Binomial(bits, ber)
}
