package server

// Server-side observability plane (DESIGN.md §16): the HTTP endpoint
// (/metrics, /healthz, /readyz), the /metrics collector, and
// structured event emission.
// Collection runs on the core goroutine via do(), so a scrape sees a
// consistent snapshot of core-owned state; the event log has its own
// lock and is readable from any goroutine.

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"cubeftl"
	"cubeftl/internal/metrics"
	"cubeftl/internal/telemetry"
)

// obsWindow holds one tenant's latency observations since the last
// /metrics scrape: the "windowed p50/p99" families reflect current
// conditions, not the run's full history. Core-owned.
type obsWindow struct {
	read  *metrics.Hist
	write *metrics.Hist
}

// obsEnabled reports whether the observability plane is configured.
func (s *Server) obsEnabled() bool {
	return s.cfg.MetricsAddr != "" || s.cfg.EventsOut != nil
}

// initObs builds the event log (always) and, when the plane is on,
// enables sampled device telemetry and the per-tenant scrape windows.
// Runs from New, before Start — no concurrency yet.
func (s *Server) initObs() {
	s.events = telemetry.NewEventLog(s.cfg.EventsOut, 0)
	if !s.obsEnabled() {
		return
	}
	s.obsWin = make([]obsWindow, len(s.cfg.Tenants))
	for i := range s.obsWin {
		s.obsWin[i] = obsWindow{read: metrics.NewHist(0), write: metrics.NewHist(0)}
	}
	s.attachDeviceObs()
}

// attachDeviceObs (re-)enables metrics-only telemetry on the device
// and points its event hook at the server's log. Remount builds a
// fresh device stack and drops the hub, so Recover calls this again.
func (s *Server) attachDeviceObs() {
	if !s.obsEnabled() {
		return
	}
	sample := s.cfg.SpanSample
	if sample == 0 {
		sample = 16
	}
	s.dev.EnableTelemetry(cubeftl.TelemetryConfig{SpanSample: sample})
	s.dev.Telemetry().SetEventLog(s.events)
}

// obsObserve feeds one completion into the tenant's scrape window.
// Core-only (completion callbacks run under pump).
func (s *Server) obsObserve(queue int, write bool, latNs int64) {
	if s.obsWin == nil || queue >= len(s.obsWin) {
		return
	}
	w := &s.obsWin[queue]
	if write {
		w.write.Add(latNs)
	} else {
		w.read.Add(latNs)
	}
}

// startObsServer binds Config.MetricsAddr and serves obsHandler on it.
// Start calls it once the core loop runs, so a scrape that arrives at
// once is served.
func (s *Server) startObsServer() error {
	if s.cfg.MetricsAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.MetricsAddr)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	// Serve does not read Addr; it records the bound address for
	// MetricsAddr.
	s.obsSrv = &http.Server{Addr: addr, Handler: s.obsHandler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.obsSrv.Serve(ln) }()
	s.events.Emit(telemetry.Event{
		Type: telemetry.EvServerListen,
		Text: map[string]string{"addr": addr},
	})
	s.logf("cubeserved: observability on http://%s/metrics", addr)
	return nil
}

// obsHandler routes the observability endpoint: /metrics in Prometheus
// text exposition format, /healthz (process liveness) and /readyz (able
// to serve). The handlers run on HTTP goroutines and read the server
// through the core goroutine.
func (s *Server) obsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		serveProm(w, s.writeMetrics)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		up, draining := s.obsState()
		switch {
		case draining:
			writeHealth(w, false, "draining")
		case !up:
			writeHealth(w, true, "down (awaiting recovery)")
		default:
			writeHealth(w, true, "up")
		}
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		up, draining := s.obsState()
		switch {
		case draining:
			writeHealth(w, false, "draining")
		case !up:
			writeHealth(w, false, "device down")
		default:
			writeHealth(w, true, "ready")
		}
	})
	return mux
}

// serveProm renders the exposition write produces, or a 500 naming its
// error: the body is buffered so a failure is never half a scrape.
func serveProm(w http.ResponseWriter, write func(io.Writer) error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		http.Error(w, "metrics: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// writeHealth answers a health probe: 200, or 503 when !ok, with the
// detail as the body.
func writeHealth(w http.ResponseWriter, ok bool, detail string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = io.WriteString(w, detail+"\n")
}

// obsState reads the mount/drain flags through the core goroutine.
func (s *Server) obsState() (up, draining bool) {
	s.do(func() { up, draining = s.up, s.draining })
	return
}

// MetricsAddr returns the bound observability address ("" when off).
func (s *Server) MetricsAddr() string {
	if s.obsSrv == nil {
		return ""
	}
	return s.obsSrv.Addr
}

// Events returns the retained structured events (safe concurrently).
func (s *Server) Events() []telemetry.Event { return s.events.Events() }

// writeMetrics renders the full exposition: server counters, session
// and dedup-window state, per-tenant queue/knob/windowed-latency
// families, SLO controller state, and the device registry snapshot.
func (s *Server) writeMetrics(w io.Writer) error {
	var fams []telemetry.PromFamily
	s.do(func() { fams = s.collectFamilies() })
	return telemetry.WriteProm(w, fams)
}

// collectFamilies builds the exposition families: what the server
// computes at scrape time is written out here; every counted number —
// the server's and the SLO controller's counters, each tenant's
// admission counters — comes from walking the struct it
// is counted in (telemetry.AppendLedger), so a counter added to one of
// them is served with no edit here. Core-only; resets the per-tenant
// scrape windows as it reads them.
func (s *Server) collectFamilies() []telemetry.PromFamily {
	one := func(name, typ, help string, v float64) telemetry.PromFamily {
		return telemetry.PromFamily{Name: name, Type: typ, Help: help,
			Samples: []telemetry.PromSample{{Value: v}}}
	}
	var dedupEntries, dedupMax int
	for _, sess := range s.sessions {
		n := len(sess.acked)
		dedupEntries += n
		if n > dedupMax {
			dedupMax = n
		}
	}
	var inflight int
	if s.fe != nil {
		inflight = s.fe.Outstanding()
	}
	fams := []telemetry.PromFamily{
		one("cube_server_up", "gauge", "device mounted and serving", telemetry.BoolValue(s.up)),
		one("cube_server_draining", "gauge", "graceful shutdown in progress", telemetry.BoolValue(s.draining)),
		one("cube_server_sessions", "gauge", "live sessions", float64(len(s.sessions))),
		one("cube_server_conns", "gauge", "open client connections", float64(len(s.conns))),
		one("cube_server_inflight", "gauge", "commands outstanding at the device", float64(inflight)),
		one("cube_server_dedup_entries", "gauge", "acked write seqs held above the floors, all sessions", float64(dedupEntries)),
		one("cube_server_dedup_entries_max", "gauge", "largest single-session dedup window", float64(dedupMax)),
		one("cube_slo_enabled", "gauge", "SLO controller active", telemetry.BoolValue(s.cfg.SLO.Enabled)),
		one("cube_events_total", "counter", "structured events emitted", float64(s.events.Total())),
	}
	fams = telemetry.AppendLedger(fams, &s.stats)
	fams = telemetry.AppendLedger(fams, s.slo)

	// Per-tenant families: the admission counters (walked), SQ occupancy
	// and inflight (the CQ side), current knob positions (the SLO
	// controller's state), and the windowed latency quantiles.
	label := func(name string) []telemetry.PromLabel {
		return []telemetry.PromLabel{{K: "tenant", V: name}}
	}
	mk := func(name, help string) *telemetry.PromFamily {
		return &telemetry.PromFamily{Name: name, Type: "gauge", Help: help}
	}
	add := func(f *telemetry.PromFamily, l []telemetry.PromLabel, v float64) {
		f.Samples = append(f.Samples, telemetry.PromSample{Labels: l, Value: v})
	}
	queueLen := mk("cube_tenant_queue_len", "submission-queue occupancy")
	inflightF := mk("cube_tenant_inflight", "commands submitted but not completed")
	weight := mk("cube_tenant_weight", "current WRR weight (SLO knob)")
	rate := mk("cube_tenant_rate_iops", "current rate cap in IOPS, 0 = uncapped (SLO knob)")
	target := mk("cube_tenant_slo_target_ns", "read-p99 SLO target, 0 = best-effort")
	if s.fe != nil {
		for i, ts := range s.fe.Snapshot() {
			l := label(ts.Tenant)
			fams = telemetry.AppendLedger(fams, &ts.TenantStats, l...)
			add(queueLen, l, float64(ts.QueueLen))
			add(inflightF, l, float64(ts.Submitted-ts.Completed))
			add(weight, l, float64(ts.Weight))
			add(rate, l, ts.RateIOPS)
			add(target, l, float64(s.cfg.Tenants[i].SLOReadP99))
		}
	}
	readP50 := mk("cube_tenant_read_p50_ns", "read p50 since last scrape")
	readP99 := mk("cube_tenant_read_p99_ns", "read p99 since last scrape")
	writeP50 := mk("cube_tenant_write_p50_ns", "write p50 since last scrape")
	writeP99 := mk("cube_tenant_write_p99_ns", "write p99 since last scrape")
	windowIOs := mk("cube_tenant_window_ios", "completions observed since last scrape")
	for i := range s.obsWin {
		w := &s.obsWin[i]
		l := label(s.cfg.Tenants[i].Name)
		add(readP50, l, float64(w.read.Percentile(50)))
		add(readP99, l, float64(w.read.Percentile(99)))
		add(writeP50, l, float64(w.write.Percentile(50)))
		add(writeP99, l, float64(w.write.Percentile(99)))
		add(windowIOs, l, float64(w.read.N()+w.write.N()))
		w.read.Reset()
		w.write.Reset()
	}

	// Lifetime plane: the per-die erase-count distribution that wear
	// leveling narrows. (The per-cause write-amplification ledger is in
	// the device registry, served below as cube_ftl_waf_*.)
	erase := mk("cube_erase_count", "per-die erase-count quantiles over good blocks")
	for die, row := range s.dev.EraseQuantiles(eraseQuantiles) {
		for qi, v := range row {
			add(erase, []telemetry.PromLabel{
				{K: "die", V: strconv.Itoa(die)},
				{K: "quantile", V: eraseQuantileNames[qi]},
			}, float64(v))
		}
	}
	for _, f := range []*telemetry.PromFamily{
		queueLen, inflightF, weight, rate, target,
		readP50, readP99, writeP50, writeP99, windowIOs, erase,
	} {
		fams = append(fams, *f)
	}

	// Device registry: per-die health and prog hists, retry-table and
	// ORT counters, GC/fault gauges — everything the device's ledgers
	// declare.
	if hub := s.dev.Telemetry(); hub != nil {
		fams = append(fams, hub.Registry().Families()...)
	}
	return fams
}

// eraseQuantiles are the exported erase-count quantiles per die; the
// names are the Prometheus-conventional quantile label values.
var (
	eraseQuantiles     = []float64{0, 0.5, 1}
	eraseQuantileNames = []string{"0", "0.5", "1"}
)
