package nand

import (
	"fmt"

	"cubeftl/internal/vth"
)

// RetryMode selects how the read-retry ladder schedules its sense and
// ECC-decode stages (Park et al. 2021, "Reducing Solid-State Drive Read
// Latency by Optimizing Read-Retry").
type RetryMode int

const (
	// RetrySerial is the classic command flow: every attempt is a full
	// sense followed by its decode, strictly serialized. With the chip's
	// decode latency left at zero this reproduces the historical model's
	// latency arithmetic bit for bit.
	RetrySerial RetryMode = iota

	// RetryPipelined (PR) speculatively issues attempt N+1's sense while
	// attempt N's data decodes: each overlapped stage costs
	// max(sense, decode), with one trailing decode at the end.
	RetryPipelined

	// RetryPipelinedAR is RetryPipelined plus adaptive-read early sense
	// termination: a sense ends early (vth.TReadARNs instead of a full
	// tREAD) whenever the sampled error margin clears ecc.ARMarginBits —
	// the outcome is unambiguous at reduced sensing precision.
	RetryPipelinedAR
)

// ReadParams are the per-operation overrides for a page read.
type ReadParams struct {
	// StartOffset is the read-reference offset level of the first
	// attempt. A PS-unaware controller always starts at 0 (the default
	// voltages); a PS-aware one starts at the h-layer's cached optimum.
	// Out-of-range values are clamped to [0, vth.MaxReadOffsetLevel]
	// before anything is issued or charged (see ReadPage).
	StartOffset int

	// MaxRetries bounds the retry ladder. Zero selects the chip default
	// (enough attempts to cover every offset level).
	MaxRetries int

	// Mode selects the retry scheduling model. The zero value is the
	// serialized classic flow.
	Mode RetryMode
}

// ReadResult reports one page read.
type ReadResult struct {
	LatencyNs int64

	// Retries is the number of extra sense operations after the first
	// attempt (NumRetry in the paper).
	Retries int

	// RetryNs is the retry-attributable share of LatencyNs: everything
	// the read cost beyond an identical zero-retry read. In serial mode
	// with zero decode latency this is exactly Retries * vth.TReadNs; in
	// the pipelined modes each retry stage contributes max(sense, decode).
	RetryNs int64

	// OffsetUsed is the offset level that finally decoded the page.
	OffsetUsed int

	// Data is the stored payload when the chip stores data.
	Data []byte
}

// clampOffset clips a requested read-reference offset level to the
// chip's valid range [0, vth.MaxReadOffsetLevel].
func clampOffset(start int) int {
	if start < 0 {
		return 0
	}
	if start > vth.MaxReadOffsetLevel {
		return vth.MaxReadOffsetLevel
	}
	return start
}

// ReadPage reads one page of a word line, running the read-retry ladder
// from params.StartOffset until the ECC engine decodes the page or the
// retry budget is exhausted (in which case ErrUncorrectable is
// returned along with the latency spent).
//
// The ladder visits offset levels in order of distance from the start:
// start, start+1, start-1, start+2, ... clipped to [0, MaxReadOffsetLevel].
// Retention drift only moves the optimum upward, so an unaware
// controller starting at 0 pays approximately (optimum - tolerance)
// retries while a PS-aware controller starting at the h-layer's cached
// optimum usually pays none — the Fig 14 effect.
//
// The start offset is clamped to the valid range once, up front; the
// TParamSetNs charge keys off the clamped value actually issued to the
// chip, so a start that clamps to 0 never pays for a parameter load the
// chip never saw. params.Mode picks the scheduling of the sense and
// decode stages (serial, pipelined, pipelined+AR); every mode consumes
// the identical randomness, so retry counts and chosen offsets are
// seed-identical across modes and only the latency arithmetic differs.
func (c *Chip) ReadPage(a Address, params ReadParams) (ReadResult, error) {
	var res ReadResult
	if err := c.checkAddr(a); err != nil {
		return res, err
	}
	blk := &c.blocks[a.Block]
	st := &blk.wls[c.wlIndex(a)]
	if !st.programmed {
		return res, fmt.Errorf("%w: %v", ErrNotProgrammed, a)
	}

	blk.reads++

	start := clampOffset(params.StartOffset)
	setupNs := int64(vth.TWriteSetupNs)
	if start != 0 {
		setupNs += vth.TParamSetNs
	}
	decodeNs := c.cfg.DecodeLatencyNs

	// Injected transient read fault: one wasted sense; a re-issued read
	// draws fresh randomness and is expected to succeed. The wasted
	// sense costs exactly what a clean first attempt's sense would have
	// (setup, parameter load if starting off-default, one strobe); no
	// decode is charged because the data never reached the ECC engine.
	if c.readFault() {
		c.stats.Reads++
		c.stats.ReadFaults++
		res.LatencyNs = setupNs + vth.TReadNs
		return res, fmt.Errorf("%w: %v", ErrReadFault, a)
	}
	blk.terms.Update(c.aging(a.Block))
	optimal := c.model.OptimalOffsetAt(a.Block, a.Layer, &blk.terms)
	if c.readJitterProb > 0 && optimal > 0 && c.src.Bool(c.readJitterProb) {
		// Momentary environmental shift of the optimum (§4.2): only
		// meaningful once the layer has drifted at all. Mostly one
		// level; occasionally two (a sharp temperature swing).
		mag := 1
		if c.src.Bool(0.35) {
			mag = 2
		}
		if c.src.Bool(0.5) {
			optimal += mag
			if optimal > vth.MaxReadOffsetLevel {
				optimal = vth.MaxReadOffsetLevel
			}
		} else {
			optimal -= mag
			if optimal < 1 {
				optimal = 1
			}
		}
	}
	baseBER := storedBER(c.model.BERAt(a.Block, a.Layer, a.WL, &blk.terms), st, blk)

	maxAttempts := params.MaxRetries + 1
	if params.MaxRetries <= 0 {
		maxAttempts = 2*vth.MaxReadOffsetLevel + 2
	}

	latency := setupNs
	attempts := 0
	it := newLadderIter(start)
	for attempts < maxAttempts {
		offset, ok := it.next()
		if !ok {
			break
		}
		attempts++
		d := offset - optimal
		eff := baseBER * vth.OffsetPenalty(d)
		dec := c.eccEng.Decode(eff, c.cfg.PageBytes)

		// AR: the sampled margin decides whether this sense ran to full
		// precision. (The model is statistical — the outcome sample
		// stands in for the margin the chip senses incrementally.)
		senseNs := int64(vth.TReadNs)
		if params.Mode == RetryPipelinedAR && dec.ARClear {
			senseNs = vth.TReadARNs
			c.stats.ARSenses++
		}

		switch {
		case params.Mode == RetrySerial:
			latency += senseNs + decodeNs
			if attempts > 1 {
				res.RetryNs += senseNs + decodeNs
			}
		case attempts == 1:
			latency += senseNs
		default:
			// Pipelined: this sense overlapped the previous attempt's
			// decode, so the stage costs whichever finished later.
			stage := senseNs
			if decodeNs > stage {
				stage = decodeNs
			}
			latency += stage
			res.RetryNs += stage
		}

		if dec.Correctable {
			if params.Mode != RetrySerial {
				latency += decodeNs // the final decode has nothing to hide behind
			}
			res.LatencyNs = latency
			res.Retries = attempts - 1
			res.OffsetUsed = offset
			if p := blk.wlPages(c.wlIndex(a)); p != nil {
				res.Data = p[a.Page]
			}
			c.stats.Reads++
			c.stats.ReadRetries += int64(res.Retries)
			return res, nil
		}
	}
	if params.Mode != RetrySerial {
		latency += decodeNs
	}
	res.LatencyNs = latency
	res.Retries = attempts - 1
	c.stats.Reads++
	c.stats.ReadRetries += int64(res.Retries)
	c.stats.ReadFailures++
	return res, fmt.Errorf("%w: %v after %d attempts", ErrUncorrectable, a, attempts)
}

// ladderIter enumerates the retry ladder in place: offset levels in
// order of distance from start, preferring the upward direction
// (retention drift is upward), clipped to the valid range and without
// duplicates. It exists so the read hot path allocates nothing.
type ladderIter struct {
	start int
	d     int // current distance; 0 means the start itself is next
	down  int // pending downward candidate, -1 when none
}

// newLadderIter starts a ladder at an already-clamped offset.
func newLadderIter(start int) ladderIter {
	return ladderIter{start: start, down: -1}
}

func (it *ladderIter) next() (int, bool) {
	if it.d == 0 {
		it.d = 1
		return it.start, true
	}
	for it.d <= vth.MaxReadOffsetLevel || it.down >= 0 {
		if it.down >= 0 {
			down := it.down
			it.down = -1
			return down, true
		}
		d := it.d
		it.d++
		if down := it.start - d; down >= 0 {
			it.down = down
		}
		if up := it.start + d; up <= vth.MaxReadOffsetLevel {
			return up, true
		}
	}
	return 0, false
}

// ladder materializes up to n steps of the retry ladder (test and
// characterization helper; ReadPage itself iterates in place).
func ladder(start, n int) []int {
	it := newLadderIter(clampOffset(start))
	seq := make([]int, 0, n)
	for len(seq) < n {
		off, ok := it.next()
		if !ok {
			break
		}
		seq = append(seq, off)
	}
	return seq
}
