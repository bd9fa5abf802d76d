package cubeftl

// Lifetime facade (DESIGN.md §17): age the device years in seconds and
// read back the wear and write-amplification state the lifetime figure
// plots. Aging is deterministic from Options.Seed — two same-seed
// devices aged by the same schedule are bit-identical media — and an
// aged device survives PowerCut/Remount because all of its state (per
// -block retention clocks, wear, grown bad blocks) lives in the NAND
// array, which is the durable medium.

import "cubeftl/internal/lifetime"

// AgeReport summarizes one aging fast-forward: Months applied in this
// hop, PEAdded across all blocks, BadBlocksGrown the controller accepted,
// BucketJumps across retry-table age buckets, MinPE/MaxPE post-aging
// wear extremes over good blocks, and ScrubQueued, the blocks the
// post-age patrol sweeps queued for refresh (zero unless
// Options.Refresh).
type AgeReport = lifetime.Report

// AgeMonths fast-forwards the device by months of simulated
// shelf/service life: per-block P/E wear accumulates at the lifetime
// package's configured rate, retention clocks of blocks holding data
// advance, bad blocks grow, and retry-table entries keyed to outgrown
// age buckets are invalidated. With Options.Refresh a patrol sweep then
// queues every block the refresh policy flags, and the simulation runs
// until the resulting relocations (and a checkpoint, when recovery is
// on) complete. Note Options.RetentionMonths pins an override that
// takes precedence over the per-block clocks; combine AgeMonths with
// Options.PECycles for pre-wear, not with pinned retention. A device
// without power does not age: the zero report.
func (s *SSD) AgeMonths(months float64) AgeReport {
	if s.st.Up() != nil {
		return AgeReport{}
	}
	return s.st.Age(months)
}

// WAFStats is the per-cause write-amplification ledger: how many bytes
// of physical programming each cause issued since the last ResetStats,
// the resulting write-amplification factor (total/host), and the
// Refreshes / WearLevels relocation cycles behind two of the causes.
type WAFStats = lifetime.WAF

// WAF returns the device's per-cause write-amplification ledger.
func (s *SSD) WAF() WAFStats { return s.ctrl.WAF() }

// EraseQuantiles returns the erase-count quantiles (0..1, nearest-rank)
// of each die's good blocks: out[die][i] is die die's qs[i] quantile.
// The spread between low and high quantiles is what wear leveling
// narrows.
func (s *SSD) EraseQuantiles(qs []float64) [][]int {
	snap := lifetime.TakeEraseSnapshot(s.dev.Array())
	out := make([][]int, len(snap.Dies))
	for d := range snap.Dies {
		row := make([]int, len(qs))
		for i, q := range qs {
			row[i] = snap.DieQuantile(d, q)
		}
		out[d] = row
	}
	return out
}

// WearSpread returns the device-wide erase-count spread (max-min over
// every good block).
func (s *SSD) WearSpread() int {
	return lifetime.TakeEraseSnapshot(s.dev.Array()).Spread()
}
