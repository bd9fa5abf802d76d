package telemetry

import (
	"errors"
	"fmt"
	"sync"

	"cubeftl/internal/metrics"
)

// ErrDuplicateName reports an attempt to register two metrics under the
// same name.
var ErrDuplicateName = errors.New("telemetry: duplicate metric name")

// Registry is the central metrics catalog: every histogram and gauge in
// the stack registers here under a unique slash-separated
// name (e.g. "ftl/die/3/prog_ns", "host/tenant/db/read_ns") so the
// sampler and reporters can enumerate them uniformly instead of
// reaching into each layer's private stats structs.
//
// Histograms and gauges register as closures: several owners (the FTL's
// ResetStats, per-run host construction) replace their underlying
// objects mid-lifetime, and a closure always resolves to the live one.
type Registry struct {
	mu      sync.Mutex
	hists   map[string]func() *metrics.Hist
	gauges  map[string]metrics.Row // Get reads the value; Kind and Help are served on /metrics
	refresh []func()               // run before each snapshot reads (MustRegisterStruct)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:  make(map[string]func() *metrics.Hist),
		gauges: make(map[string]metrics.Row),
	}
}

func (r *Registry) taken(name string) bool {
	_, h := r.hists[name]
	_, g := r.gauges[name]
	return h || g
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
	return nil
}

// RegisterGauge registers a float gauge (utilization, queue depth)
// evaluated lazily at snapshot time.
func (r *Registry) RegisterGauge(name string, get func() float64) error {
	return r.addGauge(name, metrics.Row{Kind: "gauge", Help: "registry gauge " + name, Get: get})
}

func (r *Registry) addGauge(name string, row metrics.Row) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken(name) {
		return fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	r.gauges[name] = row
	return nil
}

// MustRegisterStruct registers every declared number of the ledger
// struct ptr points to (metrics.Walk) as a gauge named prefix + its
// declared name, read through the field's address at snapshot time: a
// field added to the struct is in every snapshot with no second edit.
// Families serves it with its declared kind and help.
// refresh, when non-nil, runs once per snapshot before anything is
// read — a derived view (the byte-denominated WAF ledger) is rebuilt
// there instead of being kept current on the datapath. A duplicate
// name is a programming error and panics.
func (r *Registry) MustRegisterStruct(prefix string, ptr any, refresh func()) {
	for _, row := range metrics.Walk(ptr) {
		if row.Name == "" {
			continue
		}
		if err := r.addGauge(prefix+row.Name, row); err != nil {
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
	Gauges map[string]float64  `json:"gauges,omitempty"`
	Hists  map[string]HistStat `json:"hists,omitempty"`
}

// Snapshot captures every gauge reading and histogram headline under
// the registry lock, so a snapshot taken while another goroutine
// registers is internally consistent and isolated.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.refresh {
		f()
	}
	s := Snapshot{
		Gauges: make(map[string]float64, len(r.gauges)),
		Hists:  make(map[string]HistStat, len(r.hists)),
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Get()
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
