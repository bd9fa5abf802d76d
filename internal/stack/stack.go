// Package stack is the one place a simulated device stack is put
// together: engine, NAND array, pre-aging and fault injection, FTL
// policy, read-retry set-up and controller. The facade, the experiment
// drivers and the fleet shards each describe the device they want as a
// Spec and call Build; nothing else calls ssd.New or ftl.NewController
// or maps an FTL name to a policy (`make one-stack` checks it). The
// order of Build's steps is part of the pinned RNG stream — see
// DESIGN.md "How a stack is built".
package stack

import (
	"fmt"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/lifetime"
	"cubeftl/internal/nand"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
)

// Spec describes a device stack. The zero value is cubeFTL on a fresh
// 2x4 device of 64 blocks per chip with the default write buffer and
// the "ort" read-retry flow.
type Spec struct {
	// FTL names the policy: page, vert, isp, cube or cube- (the
	// evaluation's spellings pageFTL ... cubeFTL- are accepted too;
	// empty selects cube).
	FTL string
	// Cube, when set, replaces the cube flavour's configuration (the
	// ablation studies' mutated cubeFTL).
	Cube *core.Config

	Channels       int // default 2
	DiesPerChannel int // default 4
	BlocksPerChip  int // default 64
	PlanesPerChip  int // 0/1 = the paper's single-plane die
	Seed           uint64
	BufferPages    int // write buffer; default ftl.DefaultControllerConfig's

	// Pre-aging (paper §6.2): wear on every block and a pinned retention
	// age for all reads.
	PECycles        int
	RetentionMonths float64

	SuspendOps  bool
	WearAware   bool
	Refresh     bool
	WearLevel   bool // implies WearAware
	VerifyData  bool
	DurableAcks bool

	Faults    nand.FaultConfig
	RetryMode string // core.RetryModeNames; empty = "ort"
}

// Stack is a built device stack.
type Stack struct {
	Spec    Spec
	Eng     *sim.Engine
	Dev     *ssd.Device
	Ctrl    *ftl.Controller
	Cube    *core.CubeFTL // nil unless the policy is a cube flavour
	CtrlCfg ftl.ControllerConfig

	// HostBusy, when set, reports host I/O the stack's owner issued and
	// still waits on; DrainRelocations runs until it is false too.
	HostBusy func() bool

	ager *lifetime.Ager
}

// Build constructs the stack a spec describes.
func Build(s Spec) (*Stack, error) {
	rs, err := core.RetrySetupFor(s.RetryMode)
	if err != nil {
		return nil, err
	}
	devCfg := ssd.DefaultConfig()
	if s.Channels > 0 {
		devCfg.Channels = s.Channels
	}
	if s.DiesPerChannel > 0 {
		devCfg.DiesPerChannel = s.DiesPerChannel
	}
	devCfg.Chip.Process.BlocksPerChip = 64
	if s.BlocksPerChip > 0 {
		devCfg.Chip.Process.BlocksPerChip = s.BlocksPerChip
	}
	devCfg.PlanesPerChip = s.PlanesPerChip
	devCfg.Seed = s.Seed
	devCfg.SuspendOps = s.SuspendOps
	devCfg.Chip.StoreData = s.VerifyData
	devCfg.Chip.DecodeLatencyNs = rs.DecodeNs
	eng := sim.NewEngine()
	dev := ssd.New(eng, devCfg)
	if s.Faults.Enabled() {
		dev.SetFaults(s.Faults)
	}
	if s.PECycles > 0 || s.RetentionMonths > 0 {
		dev.PreAge(s.PECycles, s.RetentionMonths)
		dev.SetReadJitterProb(0.5) // aged cells see environmental drift
	}
	pol, cube, err := s.Policy(dev)
	if err != nil {
		return nil, err
	}
	cfg := ftl.DefaultControllerConfig()
	if s.BufferPages > 0 {
		cfg.WriteBufferPages = s.BufferPages
	}
	cfg.WearAware = s.WearAware || s.WearLevel
	cfg.Refresh = s.Refresh
	cfg.WearLevel = s.WearLevel
	cfg.VerifyData = s.VerifyData
	cfg.DurableAcks = s.DurableAcks
	cfg.RetryMode = rs.Mode
	return &Stack{
		Spec:    s,
		Eng:     eng,
		Dev:     dev,
		Ctrl:    ftl.NewController(dev, pol, cfg),
		Cube:    cube,
		CtrlCfg: cfg,
		ager:    lifetime.NewAger(lifetime.Config{Seed: s.Seed}),
	}, nil
}

// Policy builds the spec's FTL policy against dev (cube is non-nil for
// the cube flavours) with the retry-mode set-up and age buckets the
// spec implies. Build uses it, and so does a recovery mount: it needs a
// fresh policy instance, configured identically, whose learned state —
// retry table included — is then restored from the checkpoint.
func (s Spec) Policy(dev *ssd.Device) (ftl.Policy, *core.CubeFTL, error) {
	cfg := core.DefaultConfig()
	switch s.FTL {
	case "page", "pageFTL":
		return ftl.NewPagePolicy(), nil, nil
	case "vert", "vertFTL":
		return ftl.NewVertPolicy(), nil, nil
	case "isp", "ispFTL":
		return ftl.NewIspPolicy(func(chip, block int) int {
			return dev.Die(chip).NAND.PECycles(block)
		}), nil, nil
	case "cube-", "cubeFTL-":
		cfg = core.MinusConfig()
	case "", "cube", "cubeFTL":
	default:
		return nil, nil, fmt.Errorf("stack: unknown FTL %q (want page|vert|isp|cube|cube-)", s.FTL)
	}
	if s.Cube != nil {
		cfg = *s.Cube
	}
	rs, err := core.RetrySetupFor(s.RetryMode)
	if err != nil {
		return nil, nil, err
	}
	cube := core.NewCubeFTL(dev.Geometry(), cfg)
	cube.ApplyRetrySetup(rs)
	cube.SetAgeBucket(core.AgeBucketFor(s.RetentionMonths))
	// Key the retry table by each block's own retention age. On a fresh
	// or uniformly pre-aged device EffectiveRetentionMonths equals the
	// device-wide setting, so this resolves to the bucket SetAgeBucket
	// chose and replays stay bit-identical; once Age moves individual
	// blocks across bucket boundaries the key moves with the block.
	cube.SetAgeBucketFn(func(chip, block int) int {
		return core.AgeBucketFor(dev.Die(chip).NAND.EffectiveRetentionMonths(block))
	})
	return cube, cube, nil
}

// Age fast-forwards the device by months of shelf and service life
// (per-block wear, retention clocks, grown bad blocks, retry-table
// invalidation on age-bucket jumps) and settles what that triggers. It
// returns the ager's report and the number of blocks the post-age
// scrub sweeps queued for refresh (zero unless Spec.Refresh).
func (st *Stack) Age(months float64) (lifetime.Report, int) {
	hooks := lifetime.Hooks{GrowBad: st.Ctrl.GrowBadBlock}
	if st.Cube != nil {
		hooks.BucketJump = func(die, block, _, _ int) { st.Cube.InvalidateBlockRetry(die, block) }
	}
	rep := st.ager.FastForward(st.Dev.Array(), months, core.AgeBucketFor, hooks)
	st.Dev.SetReadJitterProb(0.5) // same drift as PreAge
	st.DrainRelocations()         // settle grown-bad evacuations first
	// Sweep until clean (a sweep queues nothing unless the controller
	// refreshes). A block serving as an open write point is excluded
	// from a sweep (an active cursor cannot relocate), but refresh churn
	// fills and retires open blocks, so data written before the age jump
	// can surface as refreshable only on a later pass. The loop is
	// bounded: every pass rewrites what it queues, and rewritten data is
	// fresh.
	scrubbed := 0
	for i := 0; i < 8; i++ {
		q := st.Ctrl.ScrubSweep()
		if q == 0 {
			break
		}
		scrubbed += q
		st.DrainRelocations()
	}
	return rep, scrubbed
}

// DrainRelocations runs the engine until host I/O, buffered writes and
// background relocations (GC, refresh, wear leveling) all settle. A
// run's own drain condition does not cover relocations: they are
// usually absorbed into host-I/O windows, but an Age-triggered scrub
// sweep runs with no host traffic outstanding.
func (st *Stack) DrainRelocations() {
	st.Eng.RunWhile(func() bool {
		return (st.HostBusy != nil && st.HostBusy()) || !st.Ctrl.Drained() || st.Ctrl.GCActiveAny()
	})
}
