package stack

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cubeftl/internal/core"
	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/nand"
	"cubeftl/internal/recovery"
	"cubeftl/internal/sim"
	"cubeftl/internal/workload"
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
	st, err := Build(Spec{Cube: &cfg, RetryMode: "ort-pr-ar", RetentionMonths: 12, WearLevel: true, Recovery: true})
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
	// The remount path rebuilds an identically configured policy.
	_, again, err := st.Spec.Policy(st.Dev)
	if err != nil || again.Config() != st.Cube.Config() {
		t.Errorf("Spec.Policy rebuilt %+v (err %v), want %+v", again.Config(), err, st.Cube.Config())
	}
}

// A device's whole life on a bare Stack — no facade in sight — lands on
// the numbers the facade's TestRemountSequencePinned pins for the same
// spec and steps: attach at Build, run to a mid-flight instant, power
// cut, verified remount, a measured run, then an age jump that ends on
// a durable checkpoint.
func TestLifecycleOnBareStack(t *testing.T) {
	st, err := Build(Spec{
		FTL: "cube", Channels: 2, DiesPerChannel: 2, BlocksPerChip: 16, Seed: 9,
		PECycles: 1500, RetryMode: "ort-pr", VerifyData: true, WearLevel: true,
		ProgramFailRate: 2e-4, FactoryBadRate: 0.02,
		Recovery: true, CkptInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Mgr == nil || !st.CtrlCfg.DurableAcks {
		t.Fatal("Spec.Recovery did not attach a manager with durable acks")
	}
	mixed := func() workload.Generator {
		prof, _ := workload.ByName("Mixed")
		return workload.NewStream(prof, st.Ctrl.LogicalPages(), st.Spec.Seed+0xABCD)
	}
	workload.Prefill(st.Ctrl, int64(st.Ctrl.LogicalPages()/2))
	if _, err := workload.RunTenants(st.Ctrl, []workload.TenantSpec{{
		Gen: mixed(), Requests: 4000, Queue: host.QueueConfig{Name: "Mixed", Depth: 32},
	}}, workload.MultiRunConfig{DispatchWidth: 32, DeadlineNs: st.Eng.Now() + 8*sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := st.Up(); err != nil {
		t.Fatal(err)
	}
	if err := st.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if err := st.Up(); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("Up after PowerCut: %v, want ErrPowerLost", err)
	}
	cutEng, cutCtrl := st.Eng, st.Ctrl
	rpt, err := st.Remount(true, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Up() != nil || st.Eng == cutEng || st.Ctrl == cutCtrl || st.Mgr == nil || st.Cube == nil {
		t.Fatal("Remount did not replace the volatile half of the stack")
	}
	res := workload.Run(st.Ctrl, mixed(), workload.RunConfig{Requests: 3000, QueueDepth: 16})
	cs, waf := st.Cube.CubeStats(), st.Ctrl.WAF()
	got := fmt.Sprintf("mount=%d ckpt=%v age=%d journal=%d torn=%v probed=%d oob=%d mappings=%d | reqs=%d elapsed=%d hash=%d | leaders=%d followers=%d | host=%d gc=%d | now=%d fired=%d",
		rpt.MountNs, rpt.UsedCheckpoint, rpt.CheckpointAgeNs, rpt.JournalRecords, rpt.JournalTorn, rpt.BlocksProbed, rpt.OOBPagesScanned, rpt.MappingsRecovered,
		res.Completed, res.ElapsedNs, res.TraceHash, cs.LeaderPrograms, cs.FollowerPrograms, waf.HostBytes, waf.GCBytes, st.Eng.Now(), st.Eng.Fired())
	const want = "mount=17863648 ckpt=true age=1223042 journal=0 torn=false probed=31 oob=2430 mappings=16175 | reqs=3000 elapsed=172316500 hash=7816181708754184893 | leaders=230 followers=600 | host=40452096 gc=344064 | now=190180148 fired=6751"
	if got != want {
		t.Errorf("the bare stack left the facade's pin\n got: %s\nwant: %s", got, want)
	}

	// The age jump requests its checkpoint through the remounted
	// stack's manager, and the aged device survives the next cut: wear,
	// retention clocks and grown bad blocks live in the array.
	rep := st.Age(12)
	if rep.PEAdded == 0 {
		t.Errorf("Age(12) aged nothing: %+v", rep)
	}
	if err := st.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if rpt, err = st.Remount(true, false); err != nil || !rpt.UsedCheckpoint {
		t.Fatalf("remount of the aged device: %+v, %v", rpt, err)
	}
	if lo, hi := st.Dev.Array().Die(0).PECycles(0), 1500+int(rep.PEAdded); lo <= 1500 || lo > hi {
		t.Errorf("block 0 remounted at %d P/E cycles, want the aged count in (1500, %d]", lo, hi)
	}
}

// A stack without Spec.Recovery has no power cycle.
func TestPowerCycleNeedsRecovery(t *testing.T) {
	st, err := Build(Spec{BlocksPerChip: 8, Channels: 1, DiesPerChannel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PowerCut(); !errors.Is(err, ErrRecoveryOff) {
		t.Errorf("PowerCut: %v, want ErrRecoveryOff", err)
	}
	if _, err := st.Remount(true, false); !errors.Is(err, ErrRecoveryOff) {
		t.Errorf("Remount: %v, want ErrRecoveryOff", err)
	}
	if st.Up() != nil {
		t.Error("a refused PowerCut took the stack down")
	}
}

// The latency budget of a durable write on an idle array (DESIGN.md §12):
// DMA and one padded program. No flush-timer term, because with the host
// blocked on the ack and nothing in flight nobody can send the pages the
// timer would be waiting for; and no journal-flush term, because the
// page's OOB record commits the write — the bus slack allowed is less
// than one JournalFlushNs. Two writes submitted at one instant still
// share a word line and a pad, and are acked together.
func TestDurableWriteOnIdleArraySkipsTheFlushTimer(t *testing.T) {
	st, err := Build(Spec{FTL: "cube", Channels: 2, DiesPerChannel: 2, BlocksPerChip: 16, Seed: 3, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	const busSlack = 80 * sim.Microsecond // three pages over the channel, command overheads: 60 us
	stats := st.Ctrl.Stats()
	submit := func(lpns ...int) (slowest sim.Time) {
		t.Helper()
		start, pending := st.Eng.Now(), len(lpns)
		for _, lpn := range lpns {
			if err := st.Ctrl.Write(ftl.LPN(lpn), nil, func() { pending--; slowest = st.Eng.Now() - start }); err != nil {
				t.Fatal(err)
			}
		}
		st.Eng.RunWhile(func() bool { return pending > 0 })
		return slowest
	}

	lat := submit(7)
	if stats.Programs != 1 || stats.Padded != 2 || stats.EarlyFlushes != 1 {
		t.Fatalf("one write: %d programs, %d pages of padding, %d early flushes; want 1, 2, 1", stats.Programs, stats.Padded, stats.EarlyFlushes)
	}
	budget := ftl.BufferReadNs + stats.ProgramNs + busSlack
	if lat > budget || busSlack >= recovery.JournalFlushNs {
		t.Errorf("a lone durable write took %d ns; budget %d ns (DMA %d + program %d + bus %d), a journal flush is %d",
			lat, budget, ftl.BufferReadNs, stats.ProgramNs, busSlack, recovery.JournalFlushNs)
	}

	tprog := stats.ProgramNs
	lat = submit(8, 9)
	if stats.Programs != 2 || stats.Padded != 3 || stats.EarlyFlushes != 2 {
		t.Fatalf("two writes at one instant: %d programs, %d pages of padding, %d early flushes in all; want 2, 3, 2", stats.Programs, stats.Padded, stats.EarlyFlushes)
	}
	if budget := ftl.BufferReadNs + (stats.ProgramNs - tprog) + busSlack; lat > budget {
		t.Errorf("two durable writes at one instant took %d ns, budget %d ns", lat, budget)
	}
	if err := st.Up(); err != nil {
		t.Fatal(err)
	}
}
