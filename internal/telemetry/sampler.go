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
	Degraded    bool    `json:"degraded,omitempty"`
}

// TenantSource supplies per-tenant samples; implemented by the host.
type TenantSource interface {
	TenantSamples() []TenantSample
}

// DeviceSource supplies per-die samples; implemented by the SSD device
// (utilization) with FTL overlay (degraded flags).
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

// Sampler drives periodic sampling off the simulated clock via the
// engine's probe hook. It is not an event source: the probe fires as a
// side effect of the clock crossing each interval boundary, so enabling
// sampling cannot perturb the event sequence or the run's TraceHash.
type Sampler struct {
	hub      *Hub
	interval sim.Time
	w        *bufio.Writer
	err      error
}

// StartSampler begins emitting a JSONL snapshot every interval of
// simulated time to w. One sampler per hub; starting again replaces the
// previous sink.
func (h *Hub) StartSampler(w io.Writer, interval sim.Time) *Sampler {
	s := &Sampler{hub: h, interval: interval, w: bufio.NewWriter(w)}
	h.eng.SetProbe(interval, s.fire)
	return s
}

// fire captures and writes one snapshot at simulated time at.
func (s *Sampler) fire(at sim.Time) {
	if s.err != nil {
		return
	}
	s.err = s.writeSample(at)
}

func (s *Sampler) writeSample(at sim.Time) error {
	smp := Sample{TsNs: at, Metrics: s.hub.registry.Snapshot()}
	if s.hub.tenantSrc != nil {
		smp.Tenants = s.hub.tenantSrc.TenantSamples()
	}
	if s.hub.deviceSrc != nil {
		smp.Dies = s.hub.deviceSrc.DieSamples()
	}
	b, err := json.Marshal(smp)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(b); err != nil {
		return err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		return err
	}
	return nil
}

// Close emits a final snapshot at the current simulated time (so short
// runs always produce at least one line) and flushes the sink.
func (s *Sampler) Close() error {
	if s.err != nil {
		return s.err
	}
	if err := s.writeSample(s.hub.eng.Now()); err != nil {
		return err
	}
	s.hub.eng.SetProbe(0, nil)
	return s.w.Flush()
}
