package core

import (
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/rng"
)

// End-to-end soak: cubeFTL (and cubeFTL-) under a hostile op mix with
// garbage collection and injected program disturbances must keep the
// translation state consistent — the safety check's reprogram path and
// the requeue machinery included.
//
// Each run takes about 22 500 events; one that has not drained after
// 100 000 is spinning, and fails instead of running to the test timeout.
func TestCubeConsistencySoak(t *testing.T) {
	const budget = 100_000
	for _, minus := range []bool{false, true} {
		name := "cubeFTL"
		if minus {
			name = "cubeFTL-"
		}
		t.Run(name, func(t *testing.T) {
			eng, dev := testDevice(31)
			dev.SetDisturbProb(0.01) // occasional temperature surges
			var pol ftl.Policy
			if minus {
				pol = NewMinus(dev.Geometry())
			} else {
				pol = New(dev.Geometry())
			}
			cfg := ftl.DefaultControllerConfig()
			cfg.WriteBufferPages = 24
			c := ftl.NewController(dev, pol, cfg)
			src := rng.New(99)
			n := c.LogicalPages() * 5 / 10
			ops := n * 8
			outstanding := 0
			var issue func()
			issue = func() {
				for outstanding < 12 && ops > 0 {
					ops--
					outstanding++
					lpn := ftl.LPN(src.Intn(n))
					done := func() { outstanding--; issue() }
					switch src.Intn(10) {
					case 0:
						c.Trim(lpn, done)
					case 1, 2, 3:
						c.Read(lpn, nil, done)
					default:
						c.Write(lpn, nil, done)
					}
				}
			}
			issue()
			eng.RunWhile(func() bool { return eng.Fired() < budget })
			if n := eng.Pending(); n > 0 || !c.Drained() {
				t.Fatalf("not drained after %d events (%d pending, %d GC cycles)", eng.Fired(), n, c.Stats().GCCount)
			}
			if err := c.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if c.Stats().GCCount == 0 {
				t.Error("soak did not exercise GC")
			}
			if c.Stats().Reprograms == 0 {
				t.Error("injected disturbances never triggered the safety check")
			}
			cube := pol.(*CubeFTL)
			cs := cube.CubeStats()
			if cs.SafetyRejects != c.Stats().Reprograms {
				t.Errorf("safety rejects %d != controller reprograms %d",
					cs.SafetyRejects, c.Stats().Reprograms)
			}
			if cs.FollowerPrograms == 0 {
				t.Error("no followers programmed")
			}
		})
	}
}
