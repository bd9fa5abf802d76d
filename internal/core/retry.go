package core

// Retry-table cache (DESIGN.md §15): a finer-grained layer over the ORT
// that keys the controller's read start offset by (chip, block, h-layer,
// retention-age bucket) and decays, so the prediction tracks how far the
// data has drifted since program rather than only the h-layer's last
// observation. The ORT remains the prior: a retry-table miss (or a
// stale entry) falls back to the plain per-h-layer lookup.

import (
	"fmt"

	"cubeftl/internal/ecc"
	"cubeftl/internal/nand"
)

// RetryAgeBuckets is the number of retention-age buckets the retry
// table distinguishes (see AgeBucketFor).
const RetryAgeBuckets = 6

// AgeBucketFor quantizes a retention age in months into the retry
// table's bucket index: fresh, <=1, <=3, <=6, <=12, >12 months. The
// boundaries follow the paper's evaluation anchors (1 month ~ the 30%
// retry regime, 12 months ~ the 90% regime).
func AgeBucketFor(months float64) int {
	switch {
	case months <= 0:
		return 0
	case months <= 1:
		return 1
	case months <= 3:
		return 2
	case months <= 6:
		return 3
	case months <= 12:
		return 4
	default:
		return 5
	}
}

// DefaultRetryDecayReads is the default decay horizon: a retry-table
// entry not reconfirmed within this many policy-observed reads is
// considered stale and expires on its next lookup.
const DefaultRetryDecayReads = 4096

// retryEntry is one cached (offset, freshness) pair.
type retryEntry struct {
	seq     uint64 // readSeq at the last confirmation, for decay
	offset  int8
	present bool
}

// retryBlock is one block's slice of the retry table: a row of age
// buckets per h-layer, so entry (layer, bucket) has the key
// opmKey*RetryAgeBuckets + bucket. Unlike the ORT the table always keys
// per h-layer — the whole point is tracking drift at full granularity.
// The rows are made when the block caches its first offset (4.6 KB for
// 48 h-layers) and kept from then on; a device that never turns the
// table on, or a block never read, pays for none.
type retryBlock struct {
	rows []retryRow
	live int // present entries in rows
}

type retryRow [RetryAgeBuckets]retryEntry

// entry returns the slot for (layer, bucket), or nil while the block
// has no rows.
func (rb *retryBlock) entry(layer, bucket int) *retryEntry {
	if rb.rows == nil {
		return nil
	}
	return &rb.rows[layer][bucket]
}

// setRetry stores e in the block's (layer, bucket) slot.
func (f *CubeFTL) setRetry(rb *retryBlock, layer, bucket int, e retryEntry) {
	if rb.rows == nil {
		rb.rows = make([]retryRow, f.geo.Layers)
	}
	slot := &rb.rows[layer][bucket]
	if !slot.present {
		rb.live++
		f.stats.RetryEntries++
	}
	*slot = e
}

// clearRetryBlock drops every entry of rb, keeping its rows.
func (f *CubeFTL) clearRetryBlock(rb *retryBlock) {
	if rb.live > 0 {
		clear(rb.rows)
		f.stats.RetryEntries -= int64(rb.live)
		rb.live = 0
	}
}

// dropRetry removes a present entry of rb.
func (f *CubeFTL) dropRetry(rb *retryBlock, e *retryEntry) {
	*e = retryEntry{}
	rb.live--
	f.stats.RetryEntries--
}

// bucketOf resolves a block's retention-age bucket: the resolver's
// answer, clamped so a misbehaving resolver cannot key outside the
// table, or bucket 0 when none is wired.
func (f *CubeFTL) bucketOf(chip, block int) int {
	if f.ageFn == nil {
		return 0
	}
	return min(max(f.ageFn(chip, block), 0), RetryAgeBuckets-1)
}

// SetAgeBucketFn wires the per-block retention-age bucket resolver (nil
// keys every block to bucket 0). With it, a block whose retention clock
// crosses a bucket boundary — an aging fast-forward jump — stops
// matching its old retry-table entries by construction: the lookup key
// moves with the block's age.
func (f *CubeFTL) SetAgeBucketFn(fn func(chip, block int) int) { f.ageFn = fn }

// InvalidateBlockRetry drops every cached read-start offset touching a
// block: its retry-table entries across all age buckets and layers, and
// its per-layer ORT entries. Called when an aging fast-forward jumps
// the block across a bucket boundary — the cached offsets describe a
// drift state the block no longer is in.
//
// It is also the table half of an erase: a coarse-grained ORT entry
// aggregates many blocks and is kept.
func (f *CubeFTL) InvalidateBlockRetry(chip, block int) {
	f.clearRetryBlock(&f.retry[f.blockIndex(chip, block)])
	if f.cfg.ORT == ORTPerLayer {
		base := f.opmKey(chip, block, 0)
		fillAbsent(f.ort[base : base+f.geo.Layers])
	}
}

// RetrySetup bundles everything one -retry-mode choice configures: the
// chip-level scheduling model and decode latency, and the policy-level
// table usage.
type RetrySetup struct {
	// Name is the canonical mode name ("baseline", "ort", "ort-pr",
	// "ort-pr-ar").
	Name string
	// Mode is the NAND retry scheduling model.
	Mode nand.RetryMode
	// DecodeNs is the chip's modeled ECC decode latency. Zero keeps the
	// historical decode-folded-into-sense arithmetic (and with it,
	// bit-identical replay of pre-pipeline traces).
	DecodeNs int64
	// DisableORT turns the read-offset caches off entirely — the
	// paper's PS-unaware baseline, every read starts at offset 0.
	DisableORT bool
	// RetryTable enables the per-(block, h-layer, age-bucket) decaying
	// retry table in front of the ORT.
	RetryTable bool
}

// RetryModeNames lists the accepted -retry-mode values in order of
// increasing optimization.
var RetryModeNames = []string{"baseline", "ort", "ort-pr", "ort-pr-ar"}

// RetrySetupFor maps a -retry-mode flag value to its setup. The empty
// string selects "ort" — the historical default flow, guaranteed
// bit-identical to pre-pipeline traces at the same seed.
func RetrySetupFor(name string) (RetrySetup, error) {
	switch name {
	case "", "ort":
		return RetrySetup{Name: "ort", Mode: nand.RetrySerial}, nil
	case "baseline":
		return RetrySetup{Name: "baseline", Mode: nand.RetrySerial, DisableORT: true}, nil
	case "ort-pr":
		return RetrySetup{Name: "ort-pr", Mode: nand.RetryPipelined,
			DecodeNs: ecc.DefaultDecodeLatencyNs, RetryTable: true}, nil
	case "ort-pr-ar":
		return RetrySetup{Name: "ort-pr-ar", Mode: nand.RetryPipelinedAR,
			DecodeNs: ecc.DefaultDecodeLatencyNs, RetryTable: true}, nil
	default:
		return RetrySetup{}, fmt.Errorf("core: unknown retry mode %q (want one of %v)", name, RetryModeNames)
	}
}

// ApplyRetrySetup applies the policy-level half of a RetrySetup (the
// chip- and controller-level halves are wired by whoever builds the
// device). Call it before traffic; it does not migrate existing state.
func (f *CubeFTL) ApplyRetrySetup(rs RetrySetup) {
	f.cfg.DisableORT = rs.DisableORT
	f.cfg.RetryTable = rs.RetryTable
}
