package server

import (
	"testing"
	"time"

	"cubeftl"
	"cubeftl/internal/telemetry"
)

// newSLOFixture builds a real device + front end and a controller over
// two tenants: "lat" (protected, queue 0) and "bulk" (best-effort,
// queue 1), recording its decisions in a fresh event log. The tests
// drive observe/maybeDecide directly with a synthetic clock, the same
// way the server's core loop does.
func newSLOFixture(t *testing.T, cfg SLOConfig) (*sloController, *cubeftl.FrontEnd, *cubeftl.SSD) {
	t.Helper()
	dev, err := cubeftl.New(cubeftl.Options{
		FTL: cubeftl.FTLCube, Channels: 2, DiesPerChannel: 2, BlocksPerChip: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []TenantDef{
		{Name: "lat", Weight: 4, SLOReadP99: time.Millisecond},
		{Name: "bulk", Weight: 1},
	}
	fe, err := dev.AttachFrontEnd([]cubeftl.QueueSpec{
		{Name: "lat", Weight: 4}, {Name: "bulk", Weight: 1},
	}, cubeftl.ArbWRR, 4)
	if err != nil {
		t.Fatal(err)
	}
	return newSLOController(cfg, fe, tenants, telemetry.NewEventLog(nil, 0)), fe, dev
}

// feed pushes n read observations of the given latency into a tenant's
// current window.
func feed(sc *sloController, queue, n int, lat time.Duration) {
	for i := 0; i < n; i++ {
		sc.observe(queue, false, int64(lat))
	}
}

func TestSLOTightensUnderBreach(t *testing.T) {
	cfg := SLOConfig{Enabled: true, Interval: time.Millisecond}
	sc, fe, _ := newSLOFixture(t, cfg)

	now := time.Millisecond
	sc.maybeDecide(now) // arms the first interval, no decision yet
	if evs := sc.events.Events(); len(evs) != 0 {
		t.Fatalf("decision before any window: %v", evs)
	}
	breach := func() {
		feed(sc, 0, sloMinSamples, 5*time.Millisecond) // p99 5ms against a 1ms target
		now += cfg.Interval
		sc.maybeDecide(now)
	}

	// The first responses escalate the protected weight, doubling it up
	// to sloMaxWeight: 4 -> 8 -> 16 -> 32 -> 64.
	tightenings := 0
	for want := 8; want <= sloMaxWeight; want *= 2 {
		breach()
		tightenings++
		if got := fe.Snapshot()[0].Weight; got != want {
			t.Fatalf("after breach %d, lat weight = %d, want %d", tightenings, got, want)
		}
	}

	// With the weight pinned, the controller turns to the best-effort
	// tenant's rate. bulk is uncapped, so the first squeeze starts from
	// its observed window rate (1000 IOs in 1ms = 1e6 IOPS) and halves it.
	for i := 0; i < 1000; i++ {
		sc.observe(1, true, int64(time.Millisecond))
	}
	breach()
	tightenings++
	if cap := fe.Snapshot()[1].RateIOPS; cap != 5e5 {
		t.Fatalf("first squeeze of the uncapped bulk tenant: cap %.0f, want 5e5", cap)
	}

	// Each further breach halves the cap, down to the floor and never
	// below it: at the floor a breach changes nothing.
	for i := 0; i < 12; i++ {
		prev := fe.Snapshot()[1].RateIOPS
		breach()
		cap := fe.Snapshot()[1].RateIOPS
		if want := max(prev/2, sloRateFloorIOPS); cap != want {
			t.Fatalf("squeeze from %.0f: cap %.0f, want %.0f", prev, cap, want)
		}
		if cap != prev {
			tightenings++
		}
	}
	if cap := fe.Snapshot()[1].RateIOPS; cap != sloRateFloorIOPS {
		t.Fatalf("twelve squeezes left the cap at %.0f, above the %d floor", cap, sloRateFloorIOPS)
	}

	if breaches := 4 + 1 + 12; sc.Breaches != int64(breaches) || sc.Tightenings != int64(tightenings) {
		t.Fatalf("breaches %d tightenings %d, want %d/%d", sc.Breaches, sc.Tightenings, breaches, tightenings)
	}
	if evs := sc.events.Events(); len(evs) != tightenings {
		t.Fatalf("%d decision events for %d tightenings", len(evs), tightenings)
	}
	for _, ev := range sc.events.Events() {
		if ev.Type != telemetry.EvSLOTighten || ev.Fields["applied"] != 1 {
			t.Fatalf("unexpected decision in tighten-only run: %+v", ev)
		}
	}
}

func TestSLORelaxesAfterSustainedHeadroom(t *testing.T) {
	cfg := SLOConfig{Enabled: true, Interval: time.Millisecond}
	sc, fe, _ := newSLOFixture(t, cfg)

	// Put the controller in a fully mitigated state: the weight at its
	// ceiling and the bulk cap at its floor.
	if err := fe.SetWeight(0, sloMaxWeight); err != nil {
		t.Fatal(err)
	}
	if err := fe.SetRate(1, sloRateFloorIOPS); err != nil {
		t.Fatal(err)
	}

	now := time.Millisecond
	sc.maybeDecide(now)

	// Comfortable intervals: p99 well under 70% of the 1ms target.
	// Relaxation waits for a streak of 3, then unwinds one knob per
	// interval — rate first, then weight.
	relaxed := func() (float64, int) {
		s := fe.Snapshot()
		return s[1].RateIOPS, s[0].Weight
	}
	for i := 0; i < 2; i++ {
		feed(sc, 0, sloMinSamples, 100*time.Microsecond)
		now += cfg.Interval
		sc.maybeDecide(now)
	}
	if cap, w := relaxed(); cap != sloRateFloorIOPS || w != sloMaxWeight {
		t.Fatalf("relaxed too early: cap %.0f weight %d", cap, w)
	}
	feed(sc, 0, sloMinSamples, 100*time.Microsecond)
	now += cfg.Interval
	sc.maybeDecide(now)
	cap3, _ := relaxed()
	if cap3 != 2*sloRateFloorIOPS {
		t.Fatalf("third comfortable interval should double the cap: %.0f", cap3)
	}
	// Keep relaxing: the cap lifts entirely past 8x the floor (three
	// more intervals), then the weight decays back to its base (four).
	for i := 0; i < 8; i++ {
		feed(sc, 0, sloMinSamples, 100*time.Microsecond)
		now += cfg.Interval
		sc.maybeDecide(now)
	}
	cap, w := relaxed()
	if cap != 0 {
		t.Fatalf("bulk cap never fully lifted: %.0f", cap)
	}
	if w != 4 {
		t.Fatalf("lat weight did not decay to base: %d", w)
	}
	if sc.Relaxations == 0 || sc.Breaches != 0 {
		t.Fatalf("relaxations %d breaches %d", sc.Relaxations, sc.Breaches)
	}
	if evs := sc.events.ByType(telemetry.EvSLORelax); int64(len(evs)) != sc.Relaxations || len(evs) != len(sc.events.Events()) {
		t.Fatalf("%d relax events of %d, for %d relaxations", len(evs), len(sc.events.Events()), sc.Relaxations)
	}

	// One breach resets the streak: no further relaxation until the
	// streak rebuilds.
	feed(sc, 0, sloMinSamples, 5*time.Millisecond)
	now += cfg.Interval
	sc.maybeDecide(now)
	before := sc.Relaxations
	feed(sc, 0, sloMinSamples, 100*time.Microsecond)
	now += cfg.Interval
	sc.maybeDecide(now)
	if sc.Relaxations != before {
		t.Fatal("relaxed immediately after a breach; streak not reset")
	}
}

func TestSLOSkipsThinWindowsAndDisabled(t *testing.T) {
	cfg := SLOConfig{Enabled: true, Interval: time.Millisecond}
	sc, fe, _ := newSLOFixture(t, cfg)
	now := time.Millisecond
	sc.maybeDecide(now)
	feed(sc, 0, sloMinSamples-1, 5*time.Millisecond) // one short of sloMinSamples
	now += cfg.Interval
	sc.maybeDecide(now)
	if evs := sc.events.Events(); len(evs) != 0 || fe.Snapshot()[0].Weight != 4 {
		t.Fatalf("thin window acted: %v", evs)
	}

	off, feOff, _ := newSLOFixture(t, SLOConfig{Enabled: false})
	feed(off, 0, 100, 50*time.Millisecond)
	off.maybeDecide(time.Second)
	off.maybeDecide(2 * time.Second)
	if off.events.Total() != 0 || feOff.Snapshot()[0].Weight != 4 {
		t.Fatal("disabled controller acted")
	}
}

func TestSLORebindCarriesKnobsAcrossRecovery(t *testing.T) {
	cfg := SLOConfig{Enabled: true, Interval: time.Millisecond}
	sc, fe, dev := newSLOFixture(t, cfg)
	if err := fe.SetWeight(0, 16); err != nil {
		t.Fatal(err)
	}
	if err := fe.SetRate(1, 250); err != nil {
		t.Fatal(err)
	}
	ws, rs := sc.weightsAndRates()

	fresh, err := dev.AttachFrontEnd([]cubeftl.QueueSpec{
		{Name: "lat", Weight: 4}, {Name: "bulk", Weight: 1},
	}, cubeftl.ArbWRR, 4)
	if err != nil {
		t.Fatal(err)
	}
	sc.rebind(fresh, ws, rs)
	snap := fresh.Snapshot()
	if snap[0].Weight != 16 || snap[1].RateIOPS != 250 {
		t.Fatalf("rebind lost knobs: weight %d rate %.0f", snap[0].Weight, snap[1].RateIOPS)
	}
}
