// Package ssd assembles a NAND array into a timed storage device:
// per-channel buses, per-die command serialization, and asynchronous
// read/program/erase operations driven by the discrete-event engine.
// The paper's target configuration is 2 channels x 4 3D TLC dies
// (§6.1); the topology scales to arbitrary C channels x D dies.
//
// The device layer knows nothing about mapping or policies — that is
// the FTL's job (packages ftl and core). It provides exactly what an
// SSD controller's flash interface layer provides: issue an operation
// against a die, share the channel for transfers, get a completion.
// Programs on distinct dies overlap; transfers on one channel
// serialize.
package ssd

import (
	"errors"
	"fmt"

	"cubeftl/internal/nand"
	"cubeftl/internal/pool"
	"cubeftl/internal/sim"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/vth"
)

// ErrDieFenced reports a program refused because the die has been
// fenced (its FTL-side pool is exhausted and the die is read-only).
// Fencing happens at grant time, so operations already queued on the
// die's resources when the fence goes up complete with this error
// instead of silently programming a read-only die.
var ErrDieFenced = errors.New("ssd: program on fenced (read-only) die")

// Config describes the device organization.
type Config struct {
	// Channels is the number of independent data buses; DiesPerChannel
	// the dies behind each. Die i sits on channel i % Channels.
	Channels       int
	DiesPerChannel int
	Chip           nand.Config // template; each die derives a unique seed
	Seed           uint64

	// SuspendOps enables program/erase suspend-resume: long die
	// operations hold the die in ISPP-loop-sized segments, letting
	// queued reads interleave instead of waiting out a full ~700 us
	// program or ~3.5 ms erase. This is the paper's §8 direction of
	// building SSDs with deterministic read latency on top of the
	// process-similarity work, and matches the suspend capability of
	// modern 3D NAND parts.
	SuspendOps bool
}

// DefaultConfig returns the paper's 2-channel x 4-die device.
func DefaultConfig() Config {
	return Config{
		Channels:       2,
		DiesPerChannel: 4,
		Chip:           nand.DefaultConfig(),
		Seed:           1,
	}
}

// Geometry summarizes the device's physical page space.
type Geometry struct {
	Chips          int // total dies (kept as "Chips" for PPN math compat)
	Channels       int
	DiesPerChannel int
	BlocksPerChip  int
	Layers         int
	WLsPerLayer    int
	PageBytes      int
}

// WLsPerBlock returns word lines per block.
func (g Geometry) WLsPerBlock() int { return g.Layers * g.WLsPerLayer }

// PagesPerBlock returns pages per block.
func (g Geometry) PagesPerBlock() int { return g.WLsPerBlock() * vth.PagesPerWL }

// PhysPages returns the device's total physical page count.
func (g Geometry) PhysPages() int {
	return g.Chips * g.BlocksPerChip * g.PagesPerBlock()
}

// Bytes returns the raw capacity in bytes.
func (g Geometry) Bytes() int64 {
	return int64(g.PhysPages()) * int64(g.PageBytes)
}

// PPN is a dense physical page number across the whole device.
type PPN int32

// UnmappedPPN marks an absent translation.
const UnmappedPPN PPN = -1

// EncodePPN packs a physical location. wlIdx is layer*WLsPerLayer+wl.
func (g Geometry) EncodePPN(chip, block, wlIdx, page int) PPN {
	return PPN(((chip*g.BlocksPerChip+block)*g.WLsPerBlock()+wlIdx)*vth.PagesPerWL + page)
}

// DecodePPN unpacks a physical page number.
func (g Geometry) DecodePPN(p PPN) (chip, block, layer, wl, page int) {
	v := int(p)
	page = v % vth.PagesPerWL
	v /= vth.PagesPerWL
	wlIdx := v % g.WLsPerBlock()
	v /= g.WLsPerBlock()
	block = v % g.BlocksPerChip
	chip = v / g.BlocksPerChip
	layer = wlIdx / g.WLsPerLayer
	wl = wlIdx % g.WLsPerLayer
	return
}

// DieHandle pairs one NAND die with its command-serialization resource
// (the paper's dies are single-plane, so one resource is the whole die)
// and the channel it shares.
type DieHandle struct {
	ID      int
	NAND    *nand.Chip
	plane   *sim.Resource
	channel *sim.Resource
	// fenced marks the die read-only at the device level: programs —
	// including ones already queued on the die's resources — complete
	// with ErrDieFenced at grant time instead of touching NAND state.
	fenced bool
}

// Device is the assembled SSD back end.
type Device struct {
	eng      *sim.Engine
	cfg      Config
	array    *nand.Array
	channels []*sim.Resource
	dies     []*DieHandle

	// hub, when non-nil, receives NAND operation events (tREAD, tPROG,
	// tERASE) for trace export. Hooks are passive: they never schedule
	// events, so enabling telemetry cannot change device behavior.
	hub *telemetry.Hub

	// media links the program and erase records whose NAND state
	// mutation has happened but whose latency window is still open, in
	// issue order (a ring through this sentinel). A power cut inside
	// that window leaves the word line partially programmed (or the
	// block half erased); the recovery subsystem reads the list at cut
	// time to corrupt exactly the in-flight operations.
	media mediaLink

	// Free lists of op records (ops.go). One record carries one
	// in-flight operation from issue to completion; records are reused
	// so a steady-state operation allocates nothing.
	readOps    pool.FreeList[readOp]
	programOps pool.FreeList[programOp]
	eraseOps   pool.FreeList[eraseOp]
}

// New builds a device on the given engine.
func New(eng *sim.Engine, cfg Config) *Device {
	return NewWithArray(eng, cfg, nil)
}

// NewWithArray builds a device over an existing NAND array — the
// remount path after a simulated power loss, where the media survives
// but every volatile structure (engine, resources, controller) is
// rebuilt. A nil array builds a fresh one from cfg.
func NewWithArray(eng *sim.Engine, cfg Config, array *nand.Array) *Device {
	if cfg.Channels <= 0 || cfg.DiesPerChannel <= 0 {
		panic(fmt.Sprintf("ssd: invalid organization %+v", cfg))
	}
	d := &Device{eng: eng, cfg: cfg}
	d.media.prev, d.media.next = &d.media, &d.media
	d.array = array
	if d.array == nil {
		d.array = nand.NewArray(nand.ArrayConfig{
			Channels:       cfg.Channels,
			DiesPerChannel: cfg.DiesPerChannel,
			Chip:           cfg.Chip,
			Seed:           cfg.Seed,
		})
	}
	d.channels = make([]*sim.Resource, cfg.Channels)
	for c := range d.channels {
		d.channels[c] = sim.NewResource(eng, fmt.Sprintf("chan%d", c))
	}
	n := d.array.Dies()
	d.dies = make([]*DieHandle, n)
	for i := 0; i < n; i++ {
		d.dies[i] = &DieHandle{
			ID:      i,
			NAND:    d.array.Die(i),
			plane:   sim.NewResource(eng, fmt.Sprintf("die%d/plane0", i)),
			channel: d.channels[d.array.ChannelOf(i)],
		}
	}
	return d
}

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Array returns the underlying NAND topology.
func (d *Device) Array() *nand.Array { return d.array }

// Dies returns the total die count.
func (d *Device) Dies() int { return len(d.dies) }

// Channels returns the channel count.
func (d *Device) Channels() int { return len(d.channels) }

// Die returns a die handle.
func (d *Device) Die(i int) *DieHandle { return d.dies[i] }

// ChannelOf returns the channel index serving a die.
func (d *Device) ChannelOf(die int) int { return d.array.ChannelOf(die) }

// FenceDiePrograms makes a die refuse programs — including any already
// queued on its die or channel resources — with ErrDieFenced from
// this instant on. The FTL fences a die when it transitions to per-die
// degraded (read-only) mode so that in-flight grants cannot program a
// die the controller has already written off. Reads are unaffected.
func (d *Device) FenceDiePrograms(die int) { d.dies[die].fenced = true }

// DieFenced reports whether a die refuses programs.
func (d *Device) DieFenced(die int) bool { return d.dies[die].fenced }

// Geometry returns the device's page-space geometry.
func (d *Device) Geometry() Geometry {
	p := d.cfg.Chip.Process
	return Geometry{
		Chips:          len(d.dies),
		Channels:       d.cfg.Channels,
		DiesPerChannel: d.cfg.DiesPerChannel,
		BlocksPerChip:  p.BlocksPerChip,
		Layers:         p.Layers,
		WLsPerLayer:    p.WLsPerLayer,
		PageBytes:      d.cfg.Chip.PageBytes,
	}
}

// PreAge puts every block of every die at the given wear and pins the
// retention age seen by reads — the paper's pre-aged evaluation states.
func (d *Device) PreAge(pe int, retentionMonths float64) {
	d.array.PreAge(pe, retentionMonths)
}

// SetReadJitterProb applies a per-read optimal-offset jitter probability
// to every die (environmental fluctuation; see nand.Chip).
func (d *Device) SetReadJitterProb(p float64) { d.array.SetReadJitterProb(p) }

// SetDisturbProb applies a per-program environmental-disturbance
// probability to every die (§4.1.4; see nand.Chip).
func (d *Device) SetDisturbProb(p float64) { d.array.SetDisturbProb(p) }

// SetFaults installs one fault-injection config on every die. Each die
// draws from its own seed-derived stream, so two dies with the same
// config still fail at independent, reproducible points.
func (d *Device) SetFaults(cfg nand.FaultConfig) { d.array.SetFaults(cfg) }

// SetChipFaults installs a fault-injection config on one die
// (per-die fault shaping; e.g. a single marginal die).
func (d *Device) SetChipFaults(die int, cfg nand.FaultConfig) {
	d.array.SetDieFaults(die, cfg)
}

// SetTelemetry attaches a telemetry hub; NAND operation events flow to
// its tracer when tracing is enabled. A nil hub detaches.
func (d *Device) SetTelemetry(hub *telemetry.Hub) { d.hub = hub }

// MediaOpKind distinguishes in-flight media mutations.
type MediaOpKind int

const (
	MediaProgram MediaOpKind = iota
	MediaErase
)

// MediaOp describes one in-flight media mutation: the NAND state has
// changed, the completion callback has not yet run. Addr is set for
// programs, Block for erases.
type MediaOp struct {
	Kind  MediaOpKind
	Die   int
	Addr  nand.Address
	Block int
}

// mediaLink is the part of a program or erase record that sits on the
// device's in-flight media list while the operation's latency window is
// open.
type mediaLink struct {
	op         MediaOp
	prev, next *mediaLink
}

// track appends l, carrying op, to the in-flight list.
func (d *Device) track(l *mediaLink, op MediaOp) {
	l.op = op
	l.prev, l.next = d.media.prev, &d.media
	d.media.prev.next = l
	d.media.prev = l
}

// untrack takes l off the in-flight list.
func (d *Device) untrack(l *mediaLink) {
	l.prev.next, l.next.prev = l.next, l.prev
	l.prev, l.next = nil, nil
}

// InflightMediaOps returns the media operations currently inside their
// latency windows, in issue order. A power cut at this instant
// interrupts exactly these operations.
func (d *Device) InflightMediaOps() []MediaOp {
	var ops []MediaOp
	for l := d.media.next; l != &d.media; l = l.next {
		ops = append(ops, l.op)
	}
	return ops
}

// ChannelUtilization reports one channel's utilization.
func (d *Device) ChannelUtilization(c int) float64 { return d.channels[c].Utilization() }

// DieUtilization reports one die's utilization.
func (d *Device) DieUtilization(die int) float64 { return d.dies[die].plane.Utilization() }

// QueueDepth returns the number of operations waiting on the die.
func (ch *DieHandle) QueueDepth() int { return ch.plane.QueueLen() }

// Busy reports whether the die is mid-operation.
func (ch *DieHandle) Busy() bool { return ch.plane.Busy() }
