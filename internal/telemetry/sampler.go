package telemetry

import (
	"bufio"
	"encoding/json"
	"io"

	"cubeftl/internal/sim"
)

// TenantSample is one tenant's point-in-time accounting, produced by
// the host front end.
type TenantSample struct {
	Name      string  `json:"name"`
	Completed int64   `json:"completed"`
	IOPS      float64 `json:"iops"` // cumulative, over elapsed sim time
	ReadP99   int64   `json:"read_p99_ns"`
	WriteP99  int64   `json:"write_p99_ns"`
	QueueLen  int     `json:"queue_len"`
	Grants    int64   `json:"grants"`
	Throttles int64   `json:"throttles"`
}

// DieSample is one die's point-in-time state, produced by the device
// and the FTL.
type DieSample struct {
	Die         int     `json:"die"`
	Utilization float64 `json:"util"` // plane busy-time fraction
	QueueDepth  int     `json:"qdepth"`
	BusUtil     float64 `json:"bus_util"` // die's channel utilization
}

// TenantSource supplies per-tenant samples; implemented by the host.
type TenantSource interface {
	TenantSamples() []TenantSample
}

// DeviceSource supplies per-die samples; implemented by the FTL over
// the SSD device. A die's degraded flag is the registry's
// ftl/die/<i>/degraded gauge.
type DeviceSource interface {
	DieSamples() []DieSample
}

// Sample is one periodic snapshot of the whole stack, emitted as one
// JSONL line. Field order is fixed by this struct; map keys inside the
// registry snapshot are sorted by encoding/json — the serialized form
// of a fixed-seed run is byte-identical across executions.
type Sample struct {
	TsNs    int64          `json:"ts_ns"`
	Tenants []TenantSample `json:"tenants,omitempty"`
	Dies    []DieSample    `json:"dies,omitempty"`
	Metrics Snapshot       `json:"metrics"`
}

// Sampler takes a Sample of the hub at every interval boundary of the
// simulated clock, via the engine's probe hook, and hands it to its
// sink. It is not an event source: the probe fires as a side effect of
// the clock crossing a boundary, so sampling cannot perturb the event
// sequence or the run's TraceHash.
type Sampler struct {
	hub  *Hub
	sink func(Sample) error
	err  error
}

// StartSampler begins sampling every interval of simulated time into
// sink; the first error the sink returns stops it and is Close's. One
// sampler per engine: starting again replaces the previous one.
func (h *Hub) StartSampler(interval sim.Time, sink func(Sample) error) *Sampler {
	s := &Sampler{hub: h, sink: sink}
	h.eng.SetProbe(interval, s.fire)
	return s
}

func (s *Sampler) fire(at sim.Time) {
	if s.err == nil {
		s.err = s.sink(s.hub.sample(at))
	}
}

// Close hands the sink a final sample at the current simulated time (so
// a short run always yields at least one) and stops sampling.
func (s *Sampler) Close() error {
	s.fire(s.hub.eng.Now())
	s.hub.eng.SetProbe(0, nil)
	return s.err
}

// sample snapshots the stack at simulated time at: the registry, and
// the per-tenant and per-die samples of the bound sources.
func (h *Hub) sample(at sim.Time) Sample {
	smp := Sample{TsNs: at, Metrics: h.registry.Snapshot()}
	if h.tenantSrc != nil {
		smp.Tenants = h.tenantSrc.TenantSamples()
	}
	if h.deviceSrc != nil {
		smp.Dies = h.deviceSrc.DieSamples()
	}
	return smp
}

// JSONL is the -stats-out sink: one JSON object per sample and line.
type JSONL struct {
	w *bufio.Writer
}

// NewJSONL buffers w; Flush after the last sample.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: bufio.NewWriter(w)} }

// Write appends one sample's line.
func (j *JSONL) Write(smp Sample) error {
	b, err := json.Marshal(smp)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(b); err != nil {
		return err
	}
	return j.w.WriteByte('\n')
}

// Flush writes the buffered lines out.
func (j *JSONL) Flush() error { return j.w.Flush() }
