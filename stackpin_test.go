package cubeftl

import (
	"fmt"
	"testing"
	"time"
)

// Pins of the facade paths simpin_test.go does not reach, captured at
// commit 6302764 (the parent of the internal/stack builder): the
// remount path, which rebuilds the policy from the options, and the
// FTL flavours and device settings simPins never names. A change to how
// the device stack is constructed must reproduce them to the last
// digit.
// The percentile fields (and nothing else) were re-captured at ISSUE 17,
// when metrics.Hist became the fixed-bucket histogram: each now reads
// the lower edge of its bucket, at most 2^-5 below the sample it stood
// for. TestRemountSequencePinned was re-captured at ISSUE 25, when a
// durable write came to be acked at its program's completion instead of
// a journal flush later (EXPERIMENTS.md "Served path: the commit on the
// media" lists what moved).

func pinState(dev *SSD, st RunStats) string {
	return fmt.Sprintf("%+v | %+v | %+v | now=%d fired=%d",
		st, dev.Cube(), dev.WAF(), dev.eng.Now(), dev.eng.Fired())
}

func TestRemountSequencePinned(t *testing.T) {
	dev, err := New(Options{
		FTL: FTLCube, Channels: 2, DiesPerChannel: 2, BlocksPerChip: 16, Seed: 9,
		PECycles: 1500, RetryMode: "ort-pr", VerifyData: true, WearLevel: true,
		ProgramFailRate: 2e-4, FactoryBadRate: 0.02,
		Recovery: true, CkptInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev.Prefill(int64(dev.LogicalPages() / 2))
	if _, err := dev.RunWorkloadUntil("Mixed", 4000, 32, dev.Now()+8*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerCut(); err != nil {
		t.Fatal(err)
	}
	rpt, err := dev.Remount(true, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.RunWorkload("Mixed", 3000, 16)
	if err != nil {
		t.Fatal(err)
	}
	const want = "{MountTime:17.863648ms UsedCheckpoint:true CheckpointAge:1.223042ms JournalRecords:0 JournalTorn:false BlocksProbed:31 DiscoveredBlocks:0 OOBPagesScanned:2430 MappingsRecovered:16175 RollForwardWins:25 EvacuationsQueued:0 Verified:true} | {Requests:3000 Elapsed:172.3165ms IOPS:17409.82436388854 ReadP50:540.672µs ReadP90:966.656µs ReadP99:1.441792ms WriteP50:1.277952ms WriteP90:1.80224ms WriteP99:2.94912ms MeanTPROG:595.289µs ReadRetries:0 GCRuns:0 Reprograms:0 BufferHits:77 DataMismatches:0 ProgramFailures:1 EraseFailures:0 ReadFaults:0 RetiredBlocks:1 FaultRecoveries:1 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:7816181708754184893} | {LeaderPrograms:230 FollowerPrograms:600 SafetyRejects:0 ORTHits:0 ORTMisses:982 ORTBytes:6144 RetryHits:1049 RetryStale:0 RetryMisses:982 RetryEntries:784} | {HostBytes:40452096 GCBytes:344064 RefreshBytes:0 WLBytes:0 Factor:1.008505467800729 Refreshes:0 WearLevels:0} | now=190180148 fired=6751"
	if got := fmt.Sprintf("%+v | %s", rpt, pinState(dev, st)); got != want {
		t.Errorf("simulated results moved\n got: %s\nwant: %s", got, want)
	}
}

func TestFacadeFlavoursPinned(t *testing.T) {
	for _, p := range []struct {
		opts Options
		want string
	}{
		{Options{FTL: FTLIsp, PECycles: 1000, RetentionMonths: 1},
			"{Requests:6000 Elapsed:218.498ms IOPS:27460.205585405816 ReadP50:966.656µs ReadP90:1.507328ms ReadP99:2.031616ms WriteP50:983.04µs WriteP90:1.572864ms WriteP99:1.998848ms MeanTPROG:620.37µs ReadRetries:1531 GCRuns:0 Reprograms:0 BufferHits:720 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:0 RetiredBlocks:0 FaultRecoveries:0 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:15335932232359286613} | {LeaderPrograms:0 FollowerPrograms:0 SafetyRejects:0 ORTHits:0 ORTMisses:0 ORTBytes:0 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:78299136 GCBytes:19808256 RefreshBytes:0 WLBytes:0 Factor:1.2529817953546767 Refreshes:0 WearLevels:0} | now=1694043900 fired=73182"},
		{Options{FTL: FTLCubeMinus, RetryMode: "baseline", SuspendOps: true, PlanesPerChip: 2},
			"{Requests:6000 Elapsed:230.151249ms IOPS:26069.812899429453 ReadP50:180.224µs ReadP90:344.064µs ReadP99:704.512µs WriteP50:2.064384ms WriteP90:2.686976ms WriteP99:3.211264ms MeanTPROG:599.353µs ReadRetries:0 GCRuns:8 Reprograms:0 BufferHits:689 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:0 RetiredBlocks:0 FaultRecoveries:0 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:15335932232359286613} | {LeaderPrograms:5296 FollowerPrograms:15857 SafetyRejects:0 ORTHits:0 ORTMisses:0 ORTBytes:12288 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:78004224 GCBytes:51462144 RefreshBytes:0 WLBytes:0 Factor:1.6597353497164462 Refreshes:0 WearLevels:0} | now=1676292324 fired=342638"},
		{Options{FTL: FTLVert, WearAware: true, WriteBufferPages: 96, EraseFailRate: 1e-3, ReadFaultRate: 1e-3},
			"{Requests:6000 Elapsed:229.4461ms IOPS:26149.93238063319 ReadP50:966.656µs ReadP90:1.47456ms ReadP99:1.835008ms WriteP50:1.032192ms WriteP90:1.605632ms WriteP99:2.031616ms MeanTPROG:675.937µs ReadRetries:0 GCRuns:0 Reprograms:0 BufferHits:456 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:6 RetiredBlocks:0 FaultRecoveries:6 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:15335932232359286613} | {LeaderPrograms:0 FollowerPrograms:0 SafetyRejects:0 ORTHits:0 ORTMisses:0 ORTBytes:0 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:80953344 GCBytes:20447232 RefreshBytes:0 WLBytes:0 Factor:1.2525804493017607 Refreshes:0 WearLevels:0} | now=1820643500 fired=73666"},
	} {
		p.opts.BlocksPerChip, p.opts.Seed = 16, 4
		dev, err := New(p.opts)
		if err != nil {
			t.Fatal(err)
		}
		dev.Prefill(int64(0.8 * float64(dev.LogicalPages())))
		dev.ResetStats()
		st, err := dev.RunWorkload("Mixed", 6000, 24)
		if err != nil {
			t.Fatal(err)
		}
		if got := pinState(dev, st); got != p.want {
			t.Errorf("%s: simulated results moved\n got: %s\nwant: %s", p.opts.FTL, got, p.want)
		}
	}
}
