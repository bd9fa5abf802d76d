package stack

import (
	"testing"

	"cubeftl/internal/core"
	"cubeftl/internal/nand"
)

// The one name table accepts every spelling the facade, the evaluation
// and the fleet used before they shared it.
func TestPolicyNames(t *testing.T) {
	for name, want := range map[string]string{
		"": "cubeFTL", "cube": "cubeFTL", "cubeFTL": "cubeFTL",
		"cube-": "cubeFTL-", "cubeFTL-": "cubeFTL-",
		"page": "pageFTL", "pageFTL": "pageFTL",
		"vert": "vertFTL", "vertFTL": "vertFTL",
		"isp": "ispFTL", "ispFTL": "ispFTL",
	} {
		st, err := Build(Spec{FTL: name, BlocksPerChip: 8, Channels: 1, DiesPerChannel: 1})
		if err != nil {
			t.Errorf("%q: %v", name, err)
			continue
		}
		if got := st.Ctrl.Policy().Name(); got != want {
			t.Errorf("%q built %s, want %s", name, got, want)
		}
		if (st.Cube != nil) != (want == "cubeFTL" || want == "cubeFTL-") {
			t.Errorf("%q: Cube = %v", name, st.Cube)
		}
	}
	for _, s := range []Spec{{FTL: "btree"}, {RetryMode: "psychic"}, {FTL: "page", RetryMode: "psychic"}} {
		if _, err := Build(s); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

// Build fans one retry-mode name out to chip, controller and policy, and
// defaults only what the spec leaves zero.
func TestBuildWiring(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ActiveBlocks = 3
	st, err := Build(Spec{Cube: &cfg, RetryMode: "ort-pr-ar", RetentionMonths: 12, WearLevel: true, DurableAcks: true})
	if err != nil {
		t.Fatal(err)
	}
	geo := st.Dev.Geometry()
	if geo.Channels != 2 || geo.DiesPerChannel != 4 || geo.BlocksPerChip != 64 {
		t.Errorf("zero spec topology = %+v, want 2x4x64", geo)
	}
	if st.CtrlCfg.RetryMode != nand.RetryPipelinedAR || !st.CtrlCfg.WearAware || !st.CtrlCfg.DurableAcks {
		t.Errorf("controller config %+v", st.CtrlCfg)
	}
	if st.Dev.Config().Chip.DecodeLatencyNs == 0 {
		t.Error("pipelined mode left the chip's decode latency at zero")
	}
	if c := st.Cube.Config(); !c.RetryTable || c.ActiveBlocks != 3 {
		t.Errorf("cube config %+v", c)
	}
	if got, want := st.Cube.AgeBucket(), core.AgeBucketFor(12); got != want {
		t.Errorf("age bucket %d, want %d", got, want)
	}
	// The remount path rebuilds an identically configured policy.
	_, again, err := st.Spec.Policy(st.Dev)
	if err != nil || again.Config() != st.Cube.Config() || again.AgeBucket() != st.Cube.AgeBucket() {
		t.Errorf("Spec.Policy rebuilt %+v (err %v), want %+v", again.Config(), err, st.Cube.Config())
	}
}
