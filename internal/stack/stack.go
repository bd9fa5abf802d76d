// Package stack is the one place a simulated device's whole life is
// put together: engine, NAND array, pre-aging and fault injection, FTL
// policy, read-retry set-up, controller and recovery manager at Build;
// power cut, recovery mount and the age jump afterwards. The facade, the
// experiment drivers, the fleet shards and the binaries each describe
// the device they want as a Spec — the binaries by binding its flags
// (flags.go) — and call Build; nothing else calls ssd.New,
// ftl.NewController, recovery.Attach or recovery.Mount, or maps an FTL
// name to a policy (`make one-stack` checks it). The order of the steps
// is part of the pinned RNG stream — see DESIGN.md "How a stack is
// built".
package stack

import (
	"errors"
	"fmt"
	"time"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/lifetime"
	"cubeftl/internal/nand"
	"cubeftl/internal/recovery"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/telemetry"
)

// Spec describes a simulated SSD (the facade exports it as
// cubeftl.Options). The zero value is cubeFTL on a fresh 2x4 device of
// 64 blocks per chip with the default write buffer and the "ort"
// read-retry flow. In every count and rate, zero selects the default;
// Validate rejects negative counts, non-finite or negative months and
// rates outside [0, 1].
type Spec struct {
	// FTL names the policy: page, vert, isp, cube or cube- (the
	// evaluation's spellings pageFTL ... cubeFTL- are accepted too;
	// empty selects cube).
	FTL string
	// Cube, when set, replaces the cube flavour's configuration (the
	// ablation studies' mutated cubeFTL).
	Cube *core.Config

	Channels       int // independent data buses; default 2
	DiesPerChannel int // NAND dies behind each channel; default 4
	BlocksPerChip  int // default 64 (paper's chips have 428)
	Seed           uint64

	WriteBufferPages int // default ftl.DefaultControllerConfig's (192)

	// Pre-aging (paper §6.2): wear on every block and a pinned retention
	// age for all reads.
	PECycles        int
	RetentionMonths float64

	// SuspendOps enables program/erase suspend-resume so reads
	// interleave with long chip operations (§8 extension).
	SuspendOps bool
	// Refresh enables the retention-aware background scrubber: blocks
	// whose retention age or predicted E<->P1 error rate crosses the
	// refresh policy's thresholds are rewritten before the ECC cliff.
	// The patrol is funded by host reads so it yields to tenant traffic.
	Refresh bool
	// WearLevel enables cross-block static wear leveling: after a GC
	// cycle completes, cold data is moved off the die's least-worn block
	// when the erase-count spread exceeds the wear policy's threshold,
	// and every allocation takes the least-worn erased block.
	WearLevel bool
	// VerifyData turns on the end-to-end integrity oracle: tagged
	// payloads flow through flush, GC, and read-back verification, and
	// the controller's DataMismatches counter reports violations (always
	// zero for a correct FTL). Costs memory; intended for testing.
	VerifyData bool

	// Fault injection (deterministic, seed-derived; see internal/nand).
	// All rates are per-operation probabilities; zero disables the
	// mechanism. The FTL absorbs injected faults by retiring blocks and
	// re-issuing data.
	ProgramFailRate float64 // program-status failure per word-line program
	EraseFailRate   float64 // erase failure per block erase (grows a bad block)
	ReadFaultRate   float64 // transient fault per page read (re-issued)
	FactoryBadRate  float64 // fraction of blocks factory-marked bad at boot

	// RetryMode selects the read-retry optimization stack (DESIGN.md
	// §15): "baseline" (no read-offset caches, serialized retries),
	// "ort" (the paper's per-h-layer offset cache — the default, and
	// bit-identical to pre-pipeline traces at the same seed), "ort-pr"
	// (ORT + pipelined sense/decode + the decaying age-aware retry
	// table), or "ort-pr-ar" (ort-pr + adaptive early sense
	// termination). Empty selects "ort".
	RetryMode string

	// Recovery enables the crash-consistency subsystem (DESIGN.md §12):
	// a checkpointed and journaled system area, durable-ack semantics
	// (host write acknowledgments wait for the write's page to be
	// programmed, which the remount rolls forward), and the
	// PowerCut/Remount cycle.
	Recovery bool
	// CkptInterval is the periodic checkpoint cadence in simulated time
	// (0 selects the 20ms default; negative disables periodic
	// checkpoints). Meaningful only with Recovery.
	CkptInterval time.Duration
}

var (
	// ErrRecoveryOff reports a power-cycle call on a stack built without
	// Spec.Recovery.
	ErrRecoveryOff = errors.New("cubeftl: recovery not enabled (set Options.Recovery)")
	// ErrPowerLost reports host I/O offered between PowerCut and Remount.
	ErrPowerLost = errors.New("cubeftl: power lost (Remount first)")
)

// Stack is a built device stack. Remount replaces Eng, Dev, Ctrl, Cube
// and Mgr in place: holders of a *Stack re-read them afterwards.
type Stack struct {
	Spec    Spec
	Eng     *sim.Engine
	Dev     *ssd.Device
	Ctrl    *ftl.Controller
	Cube    *core.CubeFTL // nil unless the policy is a cube flavour
	CtrlCfg ftl.ControllerConfig
	Mgr     *recovery.Manager // nil unless Spec.Recovery

	// HostBusy, when set, reports host I/O the stack's owner issued and
	// still waits on; DrainRelocations runs until it is false too.
	HostBusy func() bool

	Image *recovery.Image // what PowerCut left for Remount; nil while powered

	ager *lifetime.Ager
}

// Build constructs the stack a spec describes.
func Build(s Spec) (*Stack, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rs, _ := core.RetrySetupFor(s.RetryMode) // Validate accepted the name
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
	devCfg.Seed = s.Seed
	devCfg.SuspendOps = s.SuspendOps
	devCfg.Chip.StoreData = s.VerifyData
	devCfg.Chip.DecodeLatencyNs = rs.DecodeNs
	eng := sim.NewEngine()
	dev := ssd.New(eng, devCfg)
	faults := nand.FaultConfig{
		ProgramFailRate: s.ProgramFailRate,
		EraseFailRate:   s.EraseFailRate,
		ReadFaultRate:   s.ReadFaultRate,
		FactoryBadRate:  s.FactoryBadRate,
	}
	if faults.Enabled() {
		dev.SetFaults(faults)
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
	if s.WriteBufferPages > 0 {
		cfg.WriteBufferPages = s.WriteBufferPages
	}
	cfg.Refresh = s.Refresh
	cfg.WearLevel = s.WearLevel
	cfg.VerifyData = s.VerifyData
	cfg.DurableAcks = s.Recovery
	cfg.RetryMode = rs.Mode
	st := &Stack{
		Spec:    s,
		Eng:     eng,
		Dev:     dev,
		Ctrl:    ftl.NewController(dev, pol, cfg),
		Cube:    cube,
		CtrlCfg: cfg,
		ager:    lifetime.NewAger(s.Seed),
	}
	if s.Recovery {
		st.attach(recovery.NewSystemArea(), recovery.NewLedger())
	}
	return st, nil
}

// Policy builds the spec's FTL policy against dev (cube is non-nil for
// the cube flavours) with the retry-mode set-up and age buckets the
// spec implies. Build uses it, and so does Mount: a mount needs a
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
	// Key the retry table by each block's own retention age. On a fresh
	// or uniformly pre-aged device EffectiveRetentionMonths is the
	// device-wide setting, so every block shares one bucket; once Age
	// moves individual blocks across bucket boundaries the key moves with
	// the block.
	cube.SetAgeBucketFn(func(chip, block int) int {
		return core.AgeBucketFor(dev.Die(chip).NAND.EffectiveRetentionMonths(block))
	})
	return cube, cube, nil
}

// attach starts a recovery manager over the current controller: at
// Build on an empty system area and ledger, after a mount on the ones
// that survived. It writes the genesis (or post-mount) checkpoint.
func (st *Stack) attach(sys *recovery.SystemArea, ledger *recovery.Ledger) {
	st.Mgr = recovery.Attach(st.Ctrl, sys, recovery.Options{
		CkptIntervalNs: sim.Time(st.Spec.CkptInterval),
		Ledger:         ledger,
	})
}

// SetTelemetry attaches hub to the stack: the controller's datapath
// hooks and ledgers (ftl.Controller.SetTelemetry) and the cube policy's
// decision counters — all zero on the other FTLs — whose ORT and
// retry-table rates are the health signals DESIGN.md §15 steers on.
// The facade, the server (through the facade) and a sampled fleet
// shard all attach telemetry here.
func (st *Stack) SetTelemetry(hub *telemetry.Hub) {
	st.Ctrl.SetTelemetry(hub)
	hub.Registry().MustRegisterStruct("", st.Cube.CubeStats(), nil)
}

// Up returns ErrPowerLost between PowerCut and Remount and nil
// otherwise: the one check every host entry point makes, because the cut
// controller and engine still exist, on media the image no longer sees.
func (st *Stack) Up() error {
	if st.Image != nil {
		return ErrPowerLost
	}
	return nil
}

// PowerCut cuts the power at the current simulated instant: the stack
// keeps the Image recovery.Manager.Cut takes, and Up fails until Remount.
func (st *Stack) PowerCut() error {
	if st.Mgr == nil {
		return ErrRecoveryOff
	}
	img := st.Mgr.Cut()
	st.Image = &img
	return nil
}

// Remount mounts the image PowerCut kept (cutting the power first if the
// stack still has it) and puts the mounted stack in st's place. A failed
// mount or audit leaves st down.
func (st *Stack) Remount(verify, fullScan bool) (recovery.MountReport, error) {
	if st.Image == nil {
		if err := st.PowerCut(); err != nil {
			return recovery.MountReport{}, err
		}
	}
	mounted, rpt, err := st.Mount(*st.Image, verify, fullScan)
	if err != nil {
		return rpt, err
	}
	*st = *mounted
	return rpt, nil
}

// Mount brings img up on a fresh engine as the device st describes, and
// leaves st alone: a device over img's array (data, OOB, wear, bad blocks
// and random streams live there), a fresh policy, the controller
// recovery.Mount restores from img's system area (fullScan: from OOB
// records alone, which owe none of the ledger's trims), audited against
// img's ledger if verify, and a manager over the two. Remount and the
// power-cut sweep mount through it; an image is mounted once.
func (st *Stack) Mount(img recovery.Image, verify, fullScan bool) (*Stack, recovery.MountReport, error) {
	eng := sim.NewEngine()
	dev := ssd.NewWithArray(eng, st.Dev.Config(), img.Array)
	pol, cube, err := st.Spec.Policy(dev)
	if err != nil {
		return nil, recovery.MountReport{}, err
	}
	ctrl, rpt, err := recovery.Mount(dev, pol, st.CtrlCfg, img.System, recovery.MountOptions{ForceFullScan: fullScan})
	if err != nil {
		return nil, rpt, fmt.Errorf("cubeftl: recovery mount: %w", err)
	}
	if fullScan && img.Ledger != nil {
		img.Ledger.ForgetTrims() // the media hold no trace of a trim
	}
	if verify {
		if err := recovery.Verify(ctrl, img.Ledger); err != nil {
			return nil, rpt, fmt.Errorf("cubeftl: post-mount verification: %w", err)
		}
	}
	mounted := &Stack{Spec: st.Spec, Eng: eng, Dev: dev, Ctrl: ctrl, Cube: cube, CtrlCfg: st.CtrlCfg, HostBusy: st.HostBusy, ager: st.ager}
	mounted.attach(img.System, img.Ledger)
	return mounted, rpt, nil
}

// Age fast-forwards the device by months of shelf and service life
// (per-block wear, retention clocks, grown bad blocks, retry-table
// invalidation on age-bucket jumps) and settles what that triggers,
// ending — with Spec.Recovery — on a requested checkpoint. It returns
// the ager's report with ScrubQueued filled in.
func (st *Stack) Age(months float64) lifetime.Report {
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
	for i := 0; i < 8; i++ {
		q := st.Ctrl.ScrubSweep()
		if q == 0 {
			break
		}
		rep.ScrubQueued += q
		st.DrainRelocations()
	}
	if st.Mgr != nil {
		// Persist the post-age mapping state so a power cut right after
		// aging remounts without replaying the whole refresh burst.
		st.Mgr.CheckpointNow()
		st.DrainRelocations()
	}
	return rep
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
