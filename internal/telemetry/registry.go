package telemetry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cubeftl/internal/metrics"
)

// ErrDuplicateName reports an attempt to register two metrics under the
// same name.
var ErrDuplicateName = errors.New("telemetry: duplicate metric name")

// Counter is a named int64 counter owned by the registry. Updates are
// atomic, so a Snapshot taken while another goroutine Incs (profiling
// servers, tests) observes a consistent value — the simulator itself is
// single-threaded and never contends.
type Counter struct {
	v atomic.Int64
}

// Inc adds delta to the counter.
func (c *Counter) Inc(delta int64) { c.v.Add(delta) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is the central metrics catalog: every histogram, counter,
// and gauge in the stack registers here under a unique slash-separated
// name (e.g. "ftl/die/3/prog_ns", "host/tenant/db/read_ns") so the
// sampler and reporters can enumerate them uniformly instead of
// reaching into each layer's private stats structs.
//
// Histograms and gauges register as closures: several owners (the FTL's
// ResetStats, per-run host construction) replace their underlying
// objects mid-lifetime, and a closure always resolves to the live one.
type Registry struct {
	mu       sync.Mutex
	names    []string // insertion order, for deterministic enumeration
	counters map[string]*Counter
	hists    map[string]func() *metrics.Hist
	gauges   map[string]func() float64
	refresh  []func() // run before each snapshot reads (MustRegisterStruct)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]func() *metrics.Hist),
		gauges:   make(map[string]func() float64),
	}
}

func (r *Registry) taken(name string) bool {
	_, c := r.counters[name]
	_, h := r.hists[name]
	_, g := r.gauges[name]
	return c || h || g
}

// Counter registers and returns a new counter. Registering a name twice
// returns ErrDuplicateName.
func (r *Registry) Counter(name string) (*Counter, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(name) {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	c := new(Counter)
	r.counters[name] = c
	r.names = append(r.names, name)
	return c, nil
}

// MustCounter is Counter but panics on duplicate names — for static
// registration sites where a collision is a programming error.
func (r *Registry) MustCounter(name string) *Counter {
	c, err := r.Counter(name)
	if err != nil {
		panic(err)
	}
	return c
}

// RegisterHist registers a histogram under name. get is re-evaluated on
// every snapshot so owners may swap the underlying Hist (ResetStats).
func (r *Registry) RegisterHist(name string, get func() *metrics.Hist) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(name) {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.hists[name] = get
	r.names = append(r.names, name)
	return nil
}

// RegisterGauge registers a float gauge (utilization, queue depth)
// evaluated lazily at snapshot time.
func (r *Registry) RegisterGauge(name string, get func() float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(name) {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.gauges[name] = get
	r.names = append(r.names, name)
	return nil
}

// MustRegisterStruct registers every declared number of the ledger
// struct ptr points to (metrics.Walk) as a gauge named prefix + its
// declared name, read through the field's address at snapshot time: a
// field added to the struct is in every snapshot with no second edit.
// refresh, when non-nil, runs once per snapshot before anything is
// read — a derived view (the byte-denominated WAF ledger) is rebuilt
// there instead of being kept current on the datapath. A duplicate
// name is a programming error and panics, as in MustCounter.
func (r *Registry) MustRegisterStruct(prefix string, ptr any, refresh func()) {
	for _, row := range metrics.Walk(ptr) {
		if row.Name == "" {
			continue
		}
		if err := r.RegisterGauge(prefix+row.Name, row.Get); err != nil {
			panic(err)
		}
	}
	if refresh != nil {
		r.mu.Lock()
		r.refresh = append(r.refresh, refresh)
		r.mu.Unlock()
	}
}

// HistStat is a snapshot of one histogram's headline statistics.
type HistStat struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean_ns"`
	P50  int64   `json:"p50_ns"`
	P99  int64   `json:"p99_ns"`
	Max  int64   `json:"max_ns"`
}

// Snapshot is a point-in-time copy of every registered metric. It is
// fully detached from the registry: mutations after the snapshot do not
// alter it.
type Snapshot struct {
	Counters map[string]int64    `json:"counters,omitempty"`
	Gauges   map[string]float64  `json:"gauges,omitempty"`
	Hists    map[string]HistStat `json:"hists,omitempty"`
}

// Snapshot captures every counter value, gauge reading, and histogram
// headline under the registry lock, so a snapshot taken while another
// goroutine Adds counters is internally consistent and isolated.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.refresh {
		f()
	}
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.gauges)),
		Hists:    make(map[string]HistStat, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g()
	}
	for name, get := range r.hists {
		h := get()
		if h == nil {
			continue
		}
		s.Hists[name] = HistStat{
			N: h.N(), Mean: h.Mean(),
			P50: h.Percentile(50), P99: h.Percentile(99), Max: h.Max(),
		}
	}
	return s
}
