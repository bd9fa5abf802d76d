// Package lifetime ages a simulated SSD years in seconds and supplies
// the policies that keep an aged device serviceable: a deterministic
// fast-forward that advances per-block retention clocks and P/E wear
// and grows bad blocks, a retention/BER refresh policy (when must a
// block be rewritten before it crosses the ECC cliff), a static
// wear-leveling policy (when is the erase-count spread worth fixing),
// and the write-amplification bookkeeping that attributes every device
// write to its cause (host, GC, refresh, wear leveling).
//
// The package sits below the FTL: it mutates media state through
// package nand and leaves all relocation mechanics (what to move,
// when to yield to tenant traffic) to the controller, which it reaches
// only through caller-provided hooks. That keeps the dependency order
// ftl -> lifetime -> nand acyclic.
package lifetime

import (
	"fmt"
	"sort"
	"time"

	"cubeftl/internal/ecc"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/vth"
)

// The wear a fast-forward adds. pePerYear is the mean P/E cycles a
// block accumulates per simulated year: 650 walks a device to the
// paper's 2K-cycle rated endurance in about three years — the
// fleet-replacement horizon the lifetime figure sweeps. peJitter is the
// relative spread of per-block wear (each block's added cycles are
// scaled by a uniform factor in 1 ± peJitter); it is what gives static
// wear leveling something to level: hot blocks pull ahead of cold ones.
const (
	pePerYear = 650
	peJitter  = 0.25
)

// badBlocksPerDieYear is the expected grown-bad-block count per die per
// simulated year (real parts: a handful over the device life).
const badBlocksPerDieYear = 0.7

// MonthsPerYear and the hours that make one retention month. The
// process model's retention unit is the month; 730h ~= 365.25d / 12.
const (
	MonthsPerYear = 12
	hoursPerMonth = 730
)

// DurationMonths converts a wall-clock duration into retention months.
func DurationMonths(d time.Duration) float64 {
	return d.Hours() / hoursPerMonth
}

// Hooks let the controller participate in a fast-forward without the
// lifetime package importing it.
type Hooks struct {
	// GrowBad retires (die, block) as a grown bad block; returning
	// false vetoes the growth (e.g. the block is mid-relocation). When
	// nil, the block is marked bad directly on the media.
	GrowBad func(die, block int) bool

	// BucketJump fires after a block's retention age crossed a
	// retry-table age-bucket boundary, so cached retry offsets keyed to
	// the old bucket can be invalidated.
	BucketJump func(die, block, oldBucket, newBucket int)
}

// Report summarizes one fast-forward.
type Report struct {
	Months         float64
	PEAdded        int64 // total cycles added across all blocks
	BadBlocksGrown int   // grown (and accepted) bad blocks
	BucketJumps    int   // blocks that crossed a retention-age bucket
	MinPE, MaxPE   int   // post-aging wear extremes over good blocks
	// ScrubQueued counts blocks the post-age patrol sweeps queued for
	// refresh. FastForward leaves it zero; stack.Age, which runs the
	// sweeps, fills it in (zero unless the controller refreshes).
	ScrubQueued int
}

func (r Report) String() string {
	return fmt.Sprintf("aged %.1fmo: +%d PE (spread %d..%d), %d grown bad, %d bucket jumps",
		r.Months, r.PEAdded, r.MinPE, r.MaxPE, r.BadBlocksGrown, r.BucketJumps)
}

// Ager applies aging fast-forwards to a NAND array. Each call draws
// from a fresh seed-derived stream keyed by an internal round counter,
// so a sequence of FastForward calls is as deterministic as one.
type Ager struct {
	seed  uint64
	round int
	// badPerDieYear is badBlocksPerDieYear; the package's tests raise it
	// to force growth or zero it to turn growth off.
	badPerDieYear float64
}

// NewAger returns an Ager whose randomness is rooted at seed: same seed,
// same aging — bit-identical media state across runs.
func NewAger(seed uint64) *Ager {
	return &Ager{seed: seed, badPerDieYear: badBlocksPerDieYear}
}

// FastForward ages every die of the array by months: adds jittered P/E
// wear, advances the retention clock of every block currently holding
// data, grows bad blocks, and fires the hooks. bucketFor maps a
// retention age in months to the retry table's age-bucket index (nil
// disables bucket-jump tracking).
func (a *Ager) FastForward(arr *nand.Array, months float64, bucketFor func(months float64) int, hooks Hooks) Report {
	rep := Report{Months: months}
	if months <= 0 {
		return rep
	}
	a.round++
	root := rng.New(a.seed).Derive(fmt.Sprintf("lifetime/round/%d", a.round))
	basePE := pePerYear * months / MonthsPerYear
	rep.MinPE = 1 << 30
	for d := 0; d < arr.Dies(); d++ {
		chip := arr.Die(d)
		src := root.Derive(fmt.Sprintf("die/%d", d))
		pBad := a.badPerDieYear * months / MonthsPerYear / float64(chip.Blocks())
		for b := 0; b < chip.Blocks(); b++ {
			// Draw the block's variates unconditionally so the stream
			// stays aligned whatever the block's state is.
			jitter := 1 + peJitter*(2*src.Float64()-1)
			badDraw := src.Float64()
			if chip.IsBadBlock(b) {
				continue
			}
			add := int(basePE*jitter + 0.5)
			oldBucket := -1
			if bucketFor != nil {
				oldBucket = bucketFor(chip.EffectiveRetentionMonths(b))
			}
			chip.AddPECycles(b, add)
			rep.PEAdded += int64(add)
			if !chip.IsErased(b) {
				// Only data at rest ages in retention; an erased block's
				// clock restarts when it is next programmed.
				chip.AdvanceRetention(b, months)
				if bucketFor != nil {
					if nb := bucketFor(chip.EffectiveRetentionMonths(b)); nb != oldBucket {
						rep.BucketJumps++
						if hooks.BucketJump != nil {
							hooks.BucketJump(d, b, oldBucket, nb)
						}
					}
				}
			}
			if badDraw < pBad {
				grown := true
				if hooks.GrowBad != nil {
					grown = hooks.GrowBad(d, b)
				} else {
					chip.MarkBadBlock(b)
				}
				if grown {
					rep.BadBlocksGrown++
				}
			}
		}
		for b := 0; b < chip.Blocks(); b++ {
			if chip.IsBadBlock(b) {
				continue
			}
			pe := chip.PECycles(b)
			if pe < rep.MinPE {
				rep.MinPE = pe
			}
			if pe > rep.MaxPE {
				rep.MaxPE = pe
			}
		}
	}
	if rep.MinPE == 1<<30 {
		rep.MinPE = 0
	}
	return rep
}

// The refresh and wear-leveling thresholds used by the lifetime figure.
// Nothing sets them per device, so they are constants of the package.
const (
	// MaxRetentionMonths is the patrol's hard retention-age ceiling.
	MaxRetentionMonths = 6
	// WearSpreadThreshold is the erase-count spread (max-min over the
	// good blocks of a die) above which static wear leveling kicks in.
	WearSpreadThreshold = 64
)

// BerEP1Cliff is the E<->P1 error rate past which a block is
// refreshed: the E/P1 share of 60% of the ECC limit BER.
var BerEP1Cliff = vth.BerEP1(0.6 * ecc.LimitBER)

// NeedsRefresh reports whether a block with the given predicted raw
// BER (worst layer, current aging) and retention age should be
// rewritten now. Two triggers, either sufficient: the retention age
// passed the patrol ceiling, or the predicted E<->P1 error rate — the
// §4.1.2 health indicator, the first ECC boundary retention loss
// pushes — cleared the cliff.
func NeedsRefresh(predictedBER, retMonths float64) bool {
	return retMonths >= MaxRetentionMonths || vth.BerEP1(predictedBER) >= BerEP1Cliff
}

// ShouldLevel reports whether a die's erase-count extremes justify
// moving cold data off its least-worn block so the block rejoins the
// write rotation.
func ShouldLevel(minPE, maxPE int) bool { return maxPE-minPE > WearSpreadThreshold }

// EraseSnapshot is a point-in-time copy of every good block's erase
// count, per die — the input to wear-leveling decisions and the
// /metrics erase-count quantile families.
type EraseSnapshot struct {
	// Dies[d] holds die d's good-block P/E counts in block order.
	Dies [][]int
}

// TakeEraseSnapshot reads the erase counts of every non-bad block.
func TakeEraseSnapshot(arr *nand.Array) EraseSnapshot {
	s := EraseSnapshot{Dies: make([][]int, arr.Dies())}
	for d := 0; d < arr.Dies(); d++ {
		chip := arr.Die(d)
		counts := make([]int, 0, chip.Blocks())
		for b := 0; b < chip.Blocks(); b++ {
			if !chip.IsBadBlock(b) {
				counts = append(counts, chip.PECycles(b))
			}
		}
		s.Dies[d] = counts
	}
	return s
}

// DieQuantile returns the q-quantile (0..1, nearest-rank) of die d's
// erase counts, or 0 for an empty die.
func (s EraseSnapshot) DieQuantile(die int, q float64) int {
	if die < 0 || die >= len(s.Dies) || len(s.Dies[die]) == 0 {
		return 0
	}
	sorted := append([]int(nil), s.Dies[die]...)
	sort.Ints(sorted)
	return quantile(sorted, q)
}

// Spread returns max-min over every good block of every die.
func (s EraseSnapshot) Spread() int {
	min, max, any := 0, 0, false
	for _, die := range s.Dies {
		for _, pe := range die {
			if !any {
				min, max, any = pe, pe, true
				continue
			}
			if pe < min {
				min = pe
			}
			if pe > max {
				max = pe
			}
		}
	}
	return max - min
}

func quantile(sorted []int, q float64) int {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// WAF is the per-cause write-amplification ledger: how many bytes of
// physical programming each cause issued since the last stats reset,
// and the resulting factor. It is the one view of these numbers (the
// controller counts them in pages, ftl.Stats): the facade, /metrics,
// the fleet series and cubesim -waf-out all read this type.
type WAF struct {
	HostBytes    int64   `metric:"waf/host_bytes counter bytes programmed to serve host writes"` // incl. padding
	GCBytes      int64   `metric:"waf/gc_bytes counter bytes moved by garbage collection and reclaim"`
	RefreshBytes int64   `metric:"waf/refresh_bytes counter bytes moved by retention refresh"`
	WLBytes      int64   `metric:"waf/wl_bytes counter bytes moved by static wear leveling"`
	Factor       float64 `metric:"waf/factor gauge write-amplification factor, total/host"` // 0 before the first host write
	// Refreshes and WearLevels count the relocation cycles behind
	// RefreshBytes and WLBytes (declared on ftl.Stats).
	Refreshes  int64 `metric:"-"`
	WearLevels int64 `metric:"-"`
}

// NewWAF builds the ledger from per-cause page counts.
func NewWAF(hostPages, gcPages, refreshPages, wlPages, pageBytes int64) WAF {
	w := WAF{
		HostBytes:    hostPages * pageBytes,
		GCBytes:      gcPages * pageBytes,
		RefreshBytes: refreshPages * pageBytes,
		WLBytes:      wlPages * pageBytes,
	}
	if hostPages > 0 {
		w.Factor = float64(hostPages+gcPages+refreshPages+wlPages) / float64(hostPages)
	}
	return w
}
