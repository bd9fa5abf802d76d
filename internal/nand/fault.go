package nand

import (
	"errors"
	"fmt"
)

// Fault-injection errors. All chip-level failures are errors.Is-able so
// the FTL can discriminate recovery paths.
var (
	// ErrProgramFail is a program-status failure: the chip's internal
	// status check reports the word line did not program. The word line's
	// contents are indeterminate and the block should be retired.
	ErrProgramFail = errors.New("nand: program-status failure")
	// ErrEraseFail is an erase failure: the block no longer erases
	// within spec and must be retired as a grown bad block.
	ErrEraseFail = errors.New("nand: erase failure")
	// ErrBadBlock reports an operation issued against a block already
	// marked bad (factory or grown).
	ErrBadBlock = errors.New("nand: bad block")
	// ErrReadFault is a transient read fault (interface glitch, momentary
	// noise burst): the sense failed but a re-issued read is expected to
	// succeed.
	ErrReadFault = errors.New("nand: transient read fault")
)

// FaultConfig configures deterministic fault injection for one chip.
// All randomness derives from the chip's seed through internal/rng, so
// a run with the same seed and rates injects the same fault sequence.
// The zero value injects nothing.
type FaultConfig struct {
	// ProgramFailRate is the per-program probability of a program-status
	// failure (real parts: ~1e-4..1e-3, rising with wear).
	ProgramFailRate float64
	// EraseFailRate is the per-erase probability of an erase failure,
	// which also marks the block grown-bad on the chip.
	EraseFailRate float64
	// ReadFaultRate is the per-read probability of a transient read
	// fault; a re-issued read sees a fresh draw.
	ReadFaultRate float64
	// FactoryBadRate is the fraction of blocks marked bad at
	// manufacture, sampled once when the config is installed (JEDEC
	// allows up to ~2% factory bad blocks).
	FactoryBadRate float64

	// ProgramFailAt lists word lines whose next program fails
	// deterministically (one-shot triggers; Page is ignored). Targeted
	// tests use these instead of rates.
	ProgramFailAt []Address
	// EraseFailAt lists blocks whose next erase fails deterministically
	// (one-shot triggers).
	EraseFailAt []int
}

// Enabled reports whether the config can inject anything.
func (f FaultConfig) Enabled() bool {
	return f.ProgramFailRate > 0 || f.EraseFailRate > 0 || f.ReadFaultRate > 0 ||
		f.FactoryBadRate > 0 || len(f.ProgramFailAt) > 0 || len(f.EraseFailAt) > 0
}

// SetFaults installs a fault-injection config on the chip, sampling
// factory bad blocks from FactoryBadRate. Calling it again replaces the
// rates and triggers; factory marks accumulate (a block never un-fails).
func (c *Chip) SetFaults(cfg FaultConfig) {
	c.faults = cfg
	if cfg.FactoryBadRate > 0 {
		for b := range c.blocks {
			if c.faultSrc.Bool(cfg.FactoryBadRate) {
				c.blocks[b].bad = true
				c.blocks[b].factoryBad = true
			}
		}
	}
}

// IsBadBlock reports whether a block is marked bad (factory or grown).
func (c *Chip) IsBadBlock(block int) bool {
	return block >= 0 && block < len(c.blocks) && c.blocks[block].bad
}

// MarkBadBlock records a grown bad block, mirroring the bad-block mark
// a controller writes into a real block's spare area. Subsequent
// program and erase operations on the block fail with ErrBadBlock.
func (c *Chip) MarkBadBlock(block int) {
	if block >= 0 && block < len(c.blocks) {
		c.blocks[block].bad = true
	}
}

// FactoryBadBlocks returns the blocks marked bad at manufacture, in
// ascending order — the list a controller builds its initial bad-block
// table from (the factory bad-block scan).
func (c *Chip) FactoryBadBlocks() []int {
	var out []int
	for b := range c.blocks {
		if c.blocks[b].factoryBad {
			out = append(out, b)
		}
	}
	return out
}

// takeProgramTrigger consumes a one-shot program-fail trigger for the
// word line, if one is armed.
func (c *Chip) takeProgramTrigger(a Address) bool {
	for i, t := range c.faults.ProgramFailAt {
		if t.Block == a.Block && t.Layer == a.Layer && t.WL == a.WL {
			c.faults.ProgramFailAt = append(c.faults.ProgramFailAt[:i], c.faults.ProgramFailAt[i+1:]...)
			return true
		}
	}
	return false
}

// takeEraseTrigger consumes a one-shot erase-fail trigger for the block.
func (c *Chip) takeEraseTrigger(block int) bool {
	for i, b := range c.faults.EraseFailAt {
		if b == block {
			c.faults.EraseFailAt = append(c.faults.EraseFailAt[:i], c.faults.EraseFailAt[i+1:]...)
			return true
		}
	}
	return false
}

// programFault decides whether this program fails (trigger or rate).
func (c *Chip) programFault(a Address) bool {
	if c.takeProgramTrigger(a) {
		return true
	}
	return c.faults.ProgramFailRate > 0 && c.faultSrc.Bool(c.faults.ProgramFailRate)
}

// eraseFault decides whether this erase fails (trigger or rate).
func (c *Chip) eraseFault(block int) bool {
	if c.takeEraseTrigger(block) {
		return true
	}
	return c.faults.EraseFailRate > 0 && c.faultSrc.Bool(c.faults.EraseFailRate)
}

// readFault decides whether this read suffers a transient fault.
func (c *Chip) readFault() bool {
	return c.faults.ReadFaultRate > 0 && c.faultSrc.Bool(c.faults.ReadFaultRate)
}

// badBlockErr builds the error for an operation on a bad block.
func badBlockErr(block int) error {
	return fmt.Errorf("%w: block %d", ErrBadBlock, block)
}
