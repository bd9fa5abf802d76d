package experiment

import "testing"

// smokeOpts shrinks the run so the tier-1 gate stays fast.
func smokeOpts() SSDOpts {
	o := DefaultSSDOpts()
	o.Requests = 4000
	o.RetryMode = "ort-pr"
	return o
}

// TestLifetimeSmoke is the lifetime-smoke gate: after three simulated
// years, the refresh policy must hold read p99 within 2x of the same
// device's fresh baseline and must surface zero uncorrectable reads.
func TestLifetimeSmoke(t *testing.T) {
	opts := smokeOpts()
	d := newAgedDevice(opts, LifetimeCombo{Label: "+refresh+WL", Refresh: true, WearLevel: true})

	prefillRocks(d, opts)

	d.Ctrl.ResetStats()
	fresh := measureRocks(d, opts)
	freshP99 := fresh.ReadLat.Percentile(99)
	if freshP99 <= 0 {
		t.Fatalf("fresh read p99 = %d", freshP99)
	}

	d.Ctrl.ResetStats()
	rep := d.Age(36)
	if rep.PEAdded == 0 {
		t.Fatal("fast-forward added no wear")
	}
	aged := measureRocks(d, opts)
	agedP99 := aged.ReadLat.Percentile(99)
	st := d.Ctrl.Stats()

	if agedP99 > 2*freshP99 {
		t.Errorf("aged read p99 %.3fms > 2x fresh %.3fms",
			float64(agedP99)/1e6, float64(freshP99)/1e6)
	}
	if st.Uncorrectable != 0 {
		t.Errorf("aged run surfaced %d uncorrectable reads", st.Uncorrectable)
	}
	if st.RefreshPages == 0 {
		t.Error("refresh policy moved no pages over 3 simulated years")
	}
}

// TestLifetimeDeterministic pins the study to the seed: two identical
// baseline devices walked through the same age jump must agree bit for
// bit on wear, latency, and WAF.
func TestLifetimeDeterministic(t *testing.T) {
	opts := smokeOpts()
	opts.Requests = 2000
	run := func() (int64, int64, float64, int) {
		d := newAgedDevice(opts, LifetimeCombos[0])
		prefillRocks(d, opts)
		d.Age(24)
		d.Ctrl.ResetStats()
		r := measureRocks(d, opts)
		lo, hi := d.Ctrl.WearSpread()
		return r.ReadLat.Percentile(99), d.Ctrl.Stats().ReadRetries, d.Ctrl.WAF().Factor, hi - lo
	}
	p99a, retA, wafA, sprA := run()
	p99b, retB, wafB, sprB := run()
	if p99a != p99b || retA != retB || wafA != wafB || sprA != sprB {
		t.Errorf("same-seed runs diverged: p99 %d/%d retries %d/%d waf %v/%v spread %d/%d",
			p99a, p99b, retA, retB, wafA, wafB, sprA, sprB)
	}
}
