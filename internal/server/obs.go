package server

// Server-side observability plane (DESIGN.md §16): the /metrics
// collector, /healthz//readyz state, and structured event emission.
// Collection runs on the core goroutine via do(), so a scrape sees a
// consistent snapshot of core-owned state; the event log has its own
// lock and is readable from any goroutine.

import (
	"io"
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
	since time.Duration
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
	s.slo.events = s.events
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

// startObsServer binds Config.MetricsAddr (called from Start).
func (s *Server) startObsServer() error {
	if s.cfg.MetricsAddr == "" {
		return nil
	}
	o := telemetry.NewObsServer()
	o.SetMetrics(s.writeMetrics)
	o.SetHealth(func() telemetry.Health {
		up, draining := s.obsState()
		switch {
		case draining:
			return telemetry.Health{OK: false, Detail: "draining"}
		case !up:
			return telemetry.Health{OK: true, Detail: "down (awaiting recovery)"}
		}
		return telemetry.Health{OK: true, Detail: "up"}
	})
	o.SetReady(func() telemetry.Health {
		up, draining := s.obsState()
		switch {
		case draining:
			return telemetry.Health{OK: false, Detail: "draining"}
		case !up:
			return telemetry.Health{OK: false, Detail: "device down"}
		}
		return telemetry.Health{OK: true, Detail: "ready"}
	})
	addr, err := o.Start(s.cfg.MetricsAddr)
	if err != nil {
		return err
	}
	s.obsSrv = o
	s.events.Emit(telemetry.Event{
		Type: telemetry.EvServerListen,
		Text: map[string]string{"addr": addr},
	})
	s.logf("cubeserved: observability on http://%s/metrics", addr)
	return nil
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
	return s.obsSrv.Addr()
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

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// collectFamilies builds the exposition families. Core-only; resets
// the per-tenant scrape windows as it reads them.
func (s *Server) collectFamilies() []telemetry.PromFamily {
	one := func(name, typ, help string, v float64) telemetry.PromFamily {
		return telemetry.PromFamily{Name: name, Type: typ, Help: help,
			Samples: []telemetry.PromSample{{Value: v}}}
	}
	st := s.stats
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
		one("cube_server_up", "gauge", "device mounted and serving", b2f(s.up)),
		one("cube_server_draining", "gauge", "graceful shutdown in progress", b2f(s.draining)),
		one("cube_server_sessions", "gauge", "live sessions", float64(len(s.sessions))),
		one("cube_server_conns", "gauge", "open client connections", float64(len(s.conns))),
		one("cube_server_inflight", "gauge", "commands outstanding at the device", float64(inflight)),
		one("cube_server_dedup_entries", "gauge", "acked write seqs held above the floors, all sessions", float64(dedupEntries)),
		one("cube_server_dedup_entries_max", "gauge", "largest single-session dedup window", float64(dedupMax)),
		one("cube_server_conns_total", "counter", "connections accepted", float64(st.Conns)),
		one("cube_server_sessions_total", "counter", "sessions created", float64(st.Sessions)),
		one("cube_server_reads_total", "counter", "read commands", float64(st.Reads)),
		one("cube_server_writes_total", "counter", "write commands", float64(st.Writes)),
		one("cube_server_stat_probes_total", "counter", "OpStat probes", float64(st.Stats)),
		one("cube_server_duplicates_total", "counter", "write acks served from the dedup window", float64(st.Duplicates)),
		one("cube_server_rejects_total", "counter", "non-OK, non-duplicate replies", float64(st.Rejects)),
		one("cube_server_unavailables_total", "counter", "replies refused while down", float64(st.Unavailables)),
		one("cube_server_power_cuts_total", "counter", "power cuts injected", float64(st.PowerCuts)),
		one("cube_server_recoveries_total", "counter", "successful recoveries", float64(st.Recoveries)),
		one("cube_server_batches_total", "counter", "pumps of the device with commands outstanding", float64(st.Batches)),
		one("cube_server_batched_requests_total", "counter", "commands submitted into those pumps", float64(st.BatchedRequests)),
		one("cube_server_window_all_in_total", "counter", "batch windows skipped or left early: every session had a command in flight", float64(st.WindowAllIn)),
		one("cube_server_window_timeouts_total", "counter", "batch windows waited out with a session still silent", float64(st.WindowTimeouts)),
		one("cube_slo_enabled", "gauge", "SLO controller active", b2f(s.cfg.SLO.Enabled)),
		one("cube_slo_breaches_total", "counter", "intervals a protected tenant missed its target", float64(s.slo.Breaches)),
		one("cube_slo_tightenings_total", "counter", "knob turns tightening QoS", float64(s.slo.Tightenings)),
		one("cube_slo_relaxations_total", "counter", "knob turns relaxing QoS", float64(s.slo.Relaxations)),
		one("cube_events_total", "counter", "structured events emitted", float64(s.events.Total())),
	}

	// Per-tenant families: SQ occupancy and inflight (the CQ side),
	// current knob positions (the SLO controller's state), admission
	// counters, and the windowed latency quantiles.
	label := func(name string) []telemetry.PromLabel {
		return []telemetry.PromLabel{{K: "tenant", V: name}}
	}
	mk := func(name, typ, help string) *telemetry.PromFamily {
		return &telemetry.PromFamily{Name: name, Type: typ, Help: help}
	}
	queueLen := mk("cube_tenant_queue_len", "gauge", "submission-queue occupancy")
	inflightF := mk("cube_tenant_inflight", "gauge", "commands submitted but not completed")
	weight := mk("cube_tenant_weight", "gauge", "current WRR weight (SLO knob)")
	rate := mk("cube_tenant_rate_iops", "gauge", "current rate cap in IOPS, 0 = uncapped (SLO knob)")
	target := mk("cube_tenant_slo_target_ns", "gauge", "read-p99 SLO target, 0 = best-effort")
	grants := mk("cube_tenant_grants_total", "counter", "arbitration grants")
	throttles := mk("cube_tenant_throttles_total", "counter", "token-bucket throttles")
	queueFulls := mk("cube_tenant_queue_fulls_total", "counter", "admissions refused, queue full")
	if s.fe != nil {
		for i, ts := range s.fe.Snapshot() {
			l := label(ts.Name)
			queueLen.Samples = append(queueLen.Samples, telemetry.PromSample{Labels: l, Value: float64(ts.QueueLen)})
			inflightF.Samples = append(inflightF.Samples, telemetry.PromSample{Labels: l, Value: float64(ts.Submitted - ts.Completed)})
			weight.Samples = append(weight.Samples, telemetry.PromSample{Labels: l, Value: float64(ts.Weight)})
			rate.Samples = append(rate.Samples, telemetry.PromSample{Labels: l, Value: ts.RateIOPS})
			grants.Samples = append(grants.Samples, telemetry.PromSample{Labels: l, Value: float64(ts.Grants)})
			throttles.Samples = append(throttles.Samples, telemetry.PromSample{Labels: l, Value: float64(ts.Throttles)})
			queueFulls.Samples = append(queueFulls.Samples, telemetry.PromSample{Labels: l, Value: float64(ts.QueueFulls)})
			target.Samples = append(target.Samples, telemetry.PromSample{Labels: l, Value: float64(s.cfg.Tenants[i].SLOReadP99)})
		}
	}
	readP50 := mk("cube_tenant_read_p50_ns", "gauge", "read p50 since last scrape")
	readP99 := mk("cube_tenant_read_p99_ns", "gauge", "read p99 since last scrape")
	writeP50 := mk("cube_tenant_write_p50_ns", "gauge", "write p50 since last scrape")
	writeP99 := mk("cube_tenant_write_p99_ns", "gauge", "write p99 since last scrape")
	windowIOs := mk("cube_tenant_window_ios", "gauge", "completions observed since last scrape")
	for i := range s.obsWin {
		w := &s.obsWin[i]
		l := label(s.cfg.Tenants[i].Name)
		readP50.Samples = append(readP50.Samples, telemetry.PromSample{Labels: l, Value: float64(w.read.Percentile(50))})
		readP99.Samples = append(readP99.Samples, telemetry.PromSample{Labels: l, Value: float64(w.read.Percentile(99))})
		writeP50.Samples = append(writeP50.Samples, telemetry.PromSample{Labels: l, Value: float64(w.write.Percentile(50))})
		writeP99.Samples = append(writeP99.Samples, telemetry.PromSample{Labels: l, Value: float64(w.write.Percentile(99))})
		windowIOs.Samples = append(windowIOs.Samples, telemetry.PromSample{Labels: l, Value: float64(w.read.N() + w.write.N())})
		w.read.Reset()
		w.write.Reset()
		w.since = s.dev.Now()
	}
	for _, f := range []*telemetry.PromFamily{
		queueLen, inflightF, weight, rate, target, grants, throttles, queueFulls,
		readP50, readP99, writeP50, writeP99, windowIOs,
	} {
		fams = append(fams, *f)
	}

	// Lifetime plane: the per-cause write-amplification ledger and the
	// per-die erase-count distribution that wear leveling narrows.
	waf := s.dev.WAF()
	fams = append(fams,
		one("cube_waf_host_bytes", "counter", "bytes programmed to serve host writes", float64(waf.HostBytes)),
		one("cube_waf_gc_bytes", "counter", "bytes moved by garbage collection and reclaim", float64(waf.GCBytes)),
		one("cube_waf_refresh_bytes", "counter", "bytes moved by retention refresh", float64(waf.RefreshBytes)),
		one("cube_waf_wl_bytes", "counter", "bytes moved by static wear leveling", float64(waf.WLBytes)),
		one("cube_waf_factor", "gauge", "write-amplification factor, total/host", waf.Factor),
	)
	erase := mk("cube_erase_count", "gauge", "per-die erase-count quantiles over good blocks")
	for die, row := range s.dev.EraseQuantiles(eraseQuantiles) {
		for qi, v := range row {
			erase.Samples = append(erase.Samples, telemetry.PromSample{
				Labels: []telemetry.PromLabel{
					{K: "die", V: strconv.Itoa(die)},
					{K: "quantile", V: eraseQuantileNames[qi]},
				},
				Value: float64(v),
			})
		}
	}
	fams = append(fams, *erase)

	// Device registry: per-die health and prog hists, retry-table and
	// ORT counters, GC/fault gauges — everything the facade registers.
	if hub := s.dev.Telemetry(); hub != nil {
		fams = append(fams, telemetry.SnapshotFamilies(hub.Registry().Snapshot())...)
	}
	return fams
}

// eraseQuantiles are the exported erase-count quantiles per die; the
// names are the Prometheus-conventional quantile label values.
var (
	eraseQuantiles     = []float64{0, 0.5, 1}
	eraseQuantileNames = []string{"0", "0.5", "1"}
)
