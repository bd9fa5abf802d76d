package server

import (
	"time"

	"cubeftl"
	"cubeftl/internal/metrics"
	"cubeftl/internal/telemetry"
)

// SLOConfig configures the online latency controller (DESIGN.md §13).
// The controller watches each protected tenant's windowed read p99 and
// adapts the front end's WRR weights and best-effort rate caps so the
// target holds even while chaos (die kills, fault storms, recovery
// traffic) squeezes the device.
type SLOConfig struct {
	// Enabled turns the control loop on. Off, the server runs with the
	// static weights it was configured with.
	Enabled bool
	// Interval is the simulated time between control decisions
	// (default 2ms).
	Interval time.Duration
}

// The controller's fixed bounds.
const (
	// sloMinSamples is the fewest windowed read observations a decision
	// requires; thinner windows are skipped.
	sloMinSamples = 16
	// sloMaxWeight bounds how far a protected tenant's WRR weight may be
	// escalated.
	sloMaxWeight = 64
	// sloRateFloorIOPS is the lowest cap the controller may squeeze a
	// best-effort tenant to.
	sloRateFloorIOPS = 1000
)

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	return c
}

// tenantSLO is the controller's per-tenant state. Windows reset each
// decision interval so p99 reflects current conditions, not history.
type tenantSLO struct {
	name       string
	queue      int
	target     time.Duration // 0 = best-effort (a cap donor, not protected)
	baseWeight int

	winRead  *metrics.Hist
	winIOs   int64
	winStart time.Duration

	// relaxStreak counts consecutive comfortable intervals; relaxation
	// waits for a few so one quiet window doesn't undo a mitigation.
	relaxStreak int
}

// sloController implements the control loop. It runs entirely on the
// server's core goroutine: observe() from completion callbacks,
// maybeDecide() from the pump.
type sloController struct {
	cfg     SLOConfig
	fe      *cubeftl.FrontEnd
	tenants []*tenantSLO
	nextAt  time.Duration

	// events records each applied decision (slo_tighten/slo_relax with
	// the triggering p99 and knob values).
	events *telemetry.EventLog
	// Breaches counts intervals where a protected tenant missed its
	// target; Tightenings/Relaxations count applied knob turns. The
	// controller is their ledger (metrics.Walk).
	Breaches    int64 `metric:"slo/breaches_total counter intervals a protected tenant missed its target"`
	Tightenings int64 `metric:"slo/tightenings_total counter knob turns tightening QoS"`
	Relaxations int64 `metric:"slo/relaxations_total counter knob turns relaxing QoS"`
}

// newSLOController builds the controller over the front end, recording
// its decisions in events. A tenant with a SLOReadP99 is protected; the
// others are best-effort donors.
func newSLOController(cfg SLOConfig, fe *cubeftl.FrontEnd, tenants []TenantDef, events *telemetry.EventLog) *sloController {
	sc := &sloController{cfg: cfg.withDefaults(), fe: fe, events: events}
	for i, td := range tenants {
		w := td.Weight
		if w < 1 {
			w = 1
		}
		sc.tenants = append(sc.tenants, &tenantSLO{
			name:       td.Name,
			queue:      i,
			target:     td.SLOReadP99,
			baseWeight: w,
			winRead:    metrics.NewHist(0),
		})
	}
	return sc
}

// rebind points the controller at a fresh front end (after recovery).
// Escalated weights/caps are re-applied so a mitigation survives the
// remount instead of silently resetting to static configuration.
func (sc *sloController) rebind(fe *cubeftl.FrontEnd, weights []int, rates []float64) {
	sc.fe = fe
	for i, t := range sc.tenants {
		_ = sc.fe.SetWeight(t.queue, weights[i])
		_ = sc.fe.SetRate(t.queue, rates[i])
	}
}

// observe feeds one completed command's host-visible latency.
func (sc *sloController) observe(queue int, write bool, latNs int64) {
	if !sc.cfg.Enabled || queue >= len(sc.tenants) {
		return
	}
	t := sc.tenants[queue]
	t.winIOs++
	if !write {
		t.winRead.Add(latNs)
	}
}

// maybeDecide runs one control decision if an interval has elapsed.
// now is the simulated clock.
func (sc *sloController) maybeDecide(now time.Duration) {
	if !sc.cfg.Enabled {
		return
	}
	if sc.nextAt == 0 {
		sc.nextAt = now + sc.cfg.Interval
		return
	}
	if now < sc.nextAt {
		return
	}
	sc.nextAt = now + sc.cfg.Interval
	sc.decide(now)
	for _, t := range sc.tenants {
		t.winRead.Reset()
		t.winIOs = 0
		t.winStart = now
	}
}

func (sc *sloController) decide(now time.Duration) {
	for _, t := range sc.tenants {
		if t.target <= 0 || t.winRead.N() < sloMinSamples {
			continue
		}
		p99 := time.Duration(t.winRead.Percentile(99))
		switch {
		case p99 > t.target:
			sc.Breaches++
			t.relaxStreak = 0
			sc.tighten(now, t, p99)
		case p99 < t.target*7/10:
			t.relaxStreak++
			if t.relaxStreak >= 3 {
				sc.relax(now, t, p99)
			}
		default:
			t.relaxStreak = 0
		}
	}
}

// tighten escalates for a breached tenant: first double its WRR weight
// (up to sloMaxWeight), then squeeze every best-effort tenant's rate cap
// multiplicatively (down to sloRateFloorIOPS).
func (sc *sloController) tighten(now time.Duration, t *tenantSLO, p99 time.Duration) {
	snap := sc.fe.Snapshot()
	cur := snap[t.queue].Weight
	if cur < sloMaxWeight {
		next := min(cur*2, sloMaxWeight)
		if sc.fe.SetWeight(t.queue, next) == nil {
			sc.record(telemetry.EvSLOTighten, now, t.name, "weight", float64(cur), float64(next), p99, t.target)
			return
		}
	}
	for _, o := range sc.tenants {
		if o.target > 0 {
			continue // never throttle a protected tenant
		}
		cap := snap[o.queue].RateIOPS
		var next float64
		switch {
		case cap == 0:
			// Uncapped: start from the tenant's observed window rate so
			// the first squeeze bites immediately.
			win := now - o.winStart
			if win <= 0 || o.winIOs == 0 {
				continue
			}
			observed := float64(o.winIOs) / win.Seconds()
			next = observed / 2
		default:
			next = cap / 2
		}
		next = max(next, sloRateFloorIOPS)
		if next == cap {
			continue
		}
		if sc.fe.SetRate(o.queue, next) == nil {
			sc.record(telemetry.EvSLOTighten, now, o.name, "rate", cap, next, p99, t.target)
		}
	}
}

// relax unwinds mitigations once the protected tenant has headroom:
// best-effort caps loosen multiplicatively (and lift entirely past 8x
// the floor), then the protected weight decays toward its base.
func (sc *sloController) relax(now time.Duration, t *tenantSLO, p99 time.Duration) {
	snap := sc.fe.Snapshot()
	for _, o := range sc.tenants {
		if o.target > 0 {
			continue
		}
		cap := snap[o.queue].RateIOPS
		if cap == 0 {
			continue
		}
		next := cap * 2
		if next > sloRateFloorIOPS*8 {
			next = 0 // fully lifted
		}
		if sc.fe.SetRate(o.queue, next) == nil {
			sc.record(telemetry.EvSLORelax, now, o.name, "rate", cap, next, p99, t.target)
			return // one knob per interval on the way down
		}
	}
	cur := snap[t.queue].Weight
	if cur > t.baseWeight {
		next := cur / 2
		if next < t.baseWeight {
			next = t.baseWeight
		}
		if sc.fe.SetWeight(t.queue, next) == nil {
			sc.record(telemetry.EvSLORelax, now, t.name, "weight", float64(cur), float64(next), p99, t.target)
		}
	}
}

// record counts one applied knob turn — typ is EvSLOTighten or
// EvSLORelax — and writes it to the event log: the tenant whose knob
// moved, which knob (what: "weight" or "rate"), its old and new values,
// and the protected tenant's windowed p99 against its target.
func (sc *sloController) record(typ string, now time.Duration, tenant, what string, from, to float64, p99, target time.Duration) {
	if typ == telemetry.EvSLOTighten {
		sc.Tightenings++
	} else {
		sc.Relaxations++
	}
	sc.events.Emit(telemetry.Event{
		SimNs:  int64(now),
		Type:   typ,
		Tenant: tenant,
		Fields: map[string]float64{
			"p99_ns":    float64(p99),
			"target_ns": float64(target),
			"from":      from,
			"to":        to,
			"applied":   1,
		},
		Text: map[string]string{"what": what},
	})
}

// weightsAndRates snapshots the current knob positions (for rebinding
// after recovery).
func (sc *sloController) weightsAndRates() ([]int, []float64) {
	snap := sc.fe.Snapshot()
	ws := make([]int, len(sc.tenants))
	rs := make([]float64, len(sc.tenants))
	for i := range sc.tenants {
		ws[i] = snap[i].Weight
		rs[i] = snap[i].RateIOPS
	}
	return ws, rs
}
