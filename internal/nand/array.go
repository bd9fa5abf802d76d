package nand

import "fmt"

// ArrayConfig describes a multi-channel, multi-die NAND topology: C
// independent channels (shared data buses), each fronting D dies. Die
// i sits on channel i % Channels, matching the physical interleave a
// controller uses so consecutive die IDs spread across channels.
type ArrayConfig struct {
	Channels       int
	DiesPerChannel int
	// Chip is the per-die template; each die derives a unique
	// seed-deterministic process model and fault stream from Seed.
	Chip Config
	Seed uint64
}

// DefaultArrayConfig returns the paper's 2-channel x 4-die array.
func DefaultArrayConfig() ArrayConfig {
	return ArrayConfig{
		Channels:       2,
		DiesPerChannel: 4,
		Chip:           DefaultConfig(),
		Seed:           1,
	}
}

// Array is a C-channel x D-die NAND topology: the full population of
// dies behind a controller, each an independent Chip with its own
// seed-derived process variation and fault state. The Array owns die
// identity and channel mapping; timing (bus and die contention) is the
// device layer's job.
type Array struct {
	cfg  ArrayConfig
	dies []*Chip
}

// NewArray builds the array, deriving one deterministic seed per die
// so every die has distinct process variation and an independent,
// reproducible fault stream.
func NewArray(cfg ArrayConfig) *Array {
	if cfg.Channels <= 0 || cfg.DiesPerChannel <= 0 {
		panic(fmt.Sprintf("nand: invalid array topology %dx%d", cfg.Channels, cfg.DiesPerChannel))
	}
	a := &Array{cfg: cfg}
	n := cfg.Channels * cfg.DiesPerChannel
	a.dies = make([]*Chip, n)
	for i := 0; i < n; i++ {
		dieCfg := cfg.Chip
		dieCfg.Process.Seed = cfg.Seed*1_000_003 + uint64(i)*7919
		a.dies[i] = New(dieCfg)
	}
	return a
}

// Channels returns the channel count.
func (a *Array) Channels() int { return a.cfg.Channels }

// DiesPerChannel returns the dies behind each channel.
func (a *Array) DiesPerChannel() int { return a.cfg.DiesPerChannel }

// Dies returns the total die count.
func (a *Array) Dies() int { return len(a.dies) }

// Die returns die i (0 <= i < Dies()).
func (a *Array) Die(i int) *Chip { return a.dies[i] }

// ChannelOf returns the channel serving die i.
func (a *Array) ChannelOf(die int) int { return die % a.cfg.Channels }

// SetFaults installs one fault-injection config on every die. Each die
// draws from its own seed-derived stream, so two dies with the same
// config still fail at independent, reproducible points.
func (a *Array) SetFaults(cfg FaultConfig) {
	for _, d := range a.dies {
		d.SetFaults(cfg)
	}
}

// SetDieFaults installs a fault-injection config on one die (per-die
// fault shaping; e.g. a single marginal or dead die).
func (a *Array) SetDieFaults(die int, cfg FaultConfig) {
	a.dies[die].SetFaults(cfg)
}

// PreAge puts every block of every die at the given wear and pins the
// retention age seen by reads.
func (a *Array) PreAge(pe int, retentionMonths float64) {
	for _, d := range a.dies {
		for b := 0; b < d.Blocks(); b++ {
			d.SetPECycles(b, pe)
		}
		d.SetFixedRetention(retentionMonths)
	}
}

// SetReadJitterProb applies a per-read optimal-offset jitter
// probability to every die.
func (a *Array) SetReadJitterProb(p float64) {
	for _, d := range a.dies {
		d.SetReadJitterProb(p)
	}
}

// SetDisturbProb applies a per-program environmental-disturbance
// probability to every die.
func (a *Array) SetDisturbProb(p float64) {
	for _, d := range a.dies {
		d.SetDisturbProb(p)
	}
}

// Stats returns the array-wide operation counters: the sum of every
// die's per-chip Stats.
func (a *Array) Stats() Stats {
	var s Stats
	for _, d := range a.dies {
		ds := d.Stats()
		s.Programs += ds.Programs
		s.ProgramLoops += ds.ProgramLoops
		s.Verifies += ds.Verifies
		s.VerifiesSkipped += ds.VerifiesSkipped
		s.Reads += ds.Reads
		s.ReadRetries += ds.ReadRetries
		s.ReadFailures += ds.ReadFailures
		s.Erases += ds.Erases
		s.Reprograms += ds.Reprograms
		s.ProgramFails += ds.ProgramFails
		s.EraseFails += ds.EraseFails
		s.ReadFaults += ds.ReadFaults
	}
	return s
}
