package cubeftl

import (
	"fmt"
	"testing"

	"cubeftl/internal/pool"
)

// The values below pin "nothing simulated changed": every RunStats,
// Cube() and WAF() field, the grant-trace hash and the engine's final
// clock and event count of small fixed-seed versions of the benchmark's
// four device workloads plus one two-tenant WRR run. They were captured
// at commit 3d06033 (the parent of the op-record refactor); a host-CPU
// optimisation must reproduce them to the last digit. When a PR changes
// the model on purpose, re-capture them and say so.
// The percentile fields (and nothing else) were re-captured at ISSUE 17,
// when metrics.Hist became the fixed-bucket histogram: each now reads
// the lower edge of its bucket, at most 2^-5 below the sample it stood
// for.

type simPin struct {
	name string
	run  func(t *testing.T) string
	want string
}

func pinDevice(t *testing.T, opts Options, ageMonths float64) *SSD {
	t.Helper()
	opts.FTL, opts.Channels, opts.DiesPerChannel, opts.Seed = FTLCube, 2, 4, 3
	dev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dev.Prefill(int64(0.8 * float64(dev.LogicalPages())))
	dev.ResetStats()
	if ageMonths > 0 {
		dev.AgeMonths(ageMonths)
	}
	return dev
}

func pinWorkload(opts Options, ageMonths float64, profile string, requests int) func(t *testing.T) string {
	return func(t *testing.T) string {
		dev := pinDevice(t, opts, ageMonths)
		st, err := dev.RunWorkload(profile, requests, 24)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v | %+v | %+v | now=%d fired=%d",
			st, dev.Cube(), dev.WAF(), dev.eng.Now(), dev.eng.Fired())
	}
}

var simPins = []simPin{
	{
		name: "mixed-fresh",
		run:  pinWorkload(Options{BlocksPerChip: 24}, 0, "Mixed", 12000),
		want: "{Requests:12000 Elapsed:321.7286ms IOPS:37298.518067712976 ReadP50:671.744µs ReadP90:1.179648ms ReadP99:1.6384ms WriteP50:688.128µs WriteP90:1.179648ms WriteP99:1.507328ms MeanTPROG:560.02µs ReadRetries:0 GCRuns:8 Reprograms:0 BufferHits:1270 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:0 RetiredBlocks:0 FaultRecoveries:0 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:2131953209736109957} | {LeaderPrograms:7327 FollowerPrograms:21764 SafetyRejects:0 ORTHits:5103 ORTMisses:4574 ORTBytes:18432 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:147996672 GCBytes:13516800 RefreshBytes:0 WLBytes:0 Factor:1.0913317834606444 Refreshes:0 WearLevels:0} | now=2309207400 fired=107809",
	},
	{
		name: "read-aged",
		run:  pinWorkload(Options{BlocksPerChip: 24, PECycles: 2000, RetentionMonths: 12, RetryMode: "ort"}, 0, "YCSB-C", 12000),
		want: "{Requests:12000 Elapsed:307.8732ms IOPS:38977.08537151009 ReadP50:409.6µs ReadP90:1.507328ms ReadP99:2.555904ms WriteP50:0s WriteP90:0s WriteP99:0s MeanTPROG:0s ReadRetries:10313 GCRuns:0 Reprograms:0 BufferHits:0 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:0 RetiredBlocks:0 FaultRecoveries:0 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:2131953209736109957} | {LeaderPrograms:6492 FollowerPrograms:19313 SafetyRejects:0 ORTHits:8952 ORTMisses:3048 ORTBytes:18432 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:0 GCBytes:0 RefreshBytes:0 WLBytes:0 Factor:0 Refreshes:0 WearLevels:0} | now=2398887300 fired=101524",
	},
	{
		name: "oltp-burst",
		run:  pinWorkload(Options{BlocksPerChip: 24}, 0, "OLTP", 12000),
		want: "{Requests:12000 Elapsed:257.8726ms IOPS:46534.60662358079 ReadP50:434.176µs ReadP90:819.2µs ReadP99:1.31072ms WriteP50:606.208µs WriteP90:950.272µs WriteP99:1.277952ms MeanTPROG:559.49µs ReadRetries:0 GCRuns:8 Reprograms:0 BufferHits:203 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:0 RetiredBlocks:0 FaultRecoveries:0 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:2131953209736109957} | {LeaderPrograms:7309 FollowerPrograms:21729 SafetyRejects:0 ORTHits:1298 ORTMisses:1744 ORTBytes:18432 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:145391616 GCBytes:13516800 RefreshBytes:0 WLBytes:0 Factor:1.0929682217714671 Refreshes:0 WearLevels:0} | now=2244809400 fired=93615",
	},
	{
		name: "lifetime-3y",
		run:  pinWorkload(Options{BlocksPerChip: 32, RetryMode: "ort-pr", Refresh: true, WearLevel: true}, 36, "Rocks", 8000),
		want: "{Requests:8000 Elapsed:423.2448ms IOPS:18901.590757878184 ReadP50:1.081344ms ReadP90:1.835008ms ReadP99:2.424832ms WriteP50:2.944µs WriteP90:1.703936ms WriteP99:2.424832ms MeanTPROG:584.283µs ReadRetries:99199 GCRuns:0 Reprograms:48 BufferHits:1178 DataMismatches:0 ProgramFailures:0 EraseFailures:0 ReadFaults:0 RetiredBlocks:7 FaultRecoveries:0 WriteRejects:0 DegradedDies:0 FencedPrograms:0 TraceHash:9796203047342898021} | {LeaderPrograms:18954 FollowerPrograms:54966 SafetyRejects:48 ORTHits:918 ORTMisses:14840 ORTBytes:24576 RetryHits:103018 RetryStale:687 RetryMisses:15071 RetryEntries:4475} | {HostBytes:186826752 GCBytes:58638336 RefreshBytes:1621180416 WLBytes:75497472 Factor:10.39542225730071 Refreshes:172 WearLevels:8} | now=9241216400 fired=428852",
	},
	{
		name: "two-tenant-wrr",
		run: func(t *testing.T) string {
			dev := pinDevice(t, Options{BlocksPerChip: 24}, 0)
			st, err := dev.RunTenants([]TenantConfig{
				{Name: "hot", Workload: "YCSB-B", Requests: 5000, QueueDepth: 16, Weight: 8},
				{Name: "bulk", Workload: "Bulk", Requests: 3000, QueueDepth: 16, Weight: 1},
			}, ArbWRR, 12)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%+v | %+v | %+v | now=%d fired=%d",
				st, dev.Cube(), dev.WAF(), dev.eng.Now(), dev.eng.Fired())
		},
		want: "{Tenants:[{Name:hot Requests:5000 Elapsed:178.3427ms IOPS:28035.910637217 ReadP50:557.056µs ReadP99:1.245184ms ReadP999:1.605632ms WriteP50:126.976µs WriteP99:417.792µs WriteP999:524.288µs QueueFulls:4984 Throttles:0 Rejects:0 Grants:5000 MaxHeadWait:648µs} {Name:bulk Requests:3000 Elapsed:638.4325ms IOPS:4699.008900706026 ReadP50:0s ReadP99:0s ReadP999:0s WriteP50:3.080192ms WriteP99:6.5536ms WriteP999:29.360128ms QueueFulls:2984 Throttles:0 Rejects:0 Grants:3000 MaxHeadWait:18.3457ms}] Elapsed:638.4325ms TraceHash:18247660324016623485 Grants:8000 AggReadP99:1.245184ms AggWriteP99:6.422528ms} | {LeaderPrograms:8359 FollowerPrograms:24872 SafetyRejects:0 ORTHits:6327 ORTMisses:2182 ORTBytes:18432 RetryHits:0 RetryStale:0 RetryMisses:0 RetryEntries:0} | {HostBytes:303022080 GCBytes:61980672 RefreshBytes:0 WLBytes:0 Factor:1.2045417680454176 Refreshes:0 WearLevels:0} | now=2625360400 fired=116279",
	},
}

func TestSimulatedNumbersPinned(t *testing.T) {
	for _, p := range simPins {
		p := p
		t.Run(p.name, func(t *testing.T) {
			if got := p.run(t); got != p.want {
				t.Errorf("simulated results moved\n got: %s\nwant: %s", got, p.want)
			}
		})
	}
}

// Pooling is invisible to the simulation: with every op-record free
// list capped at one record (so most releases drop the record and most
// operations build a fresh one) the same numbers come out.
func TestSimulatedNumbersPinnedWithRecycledOpRecords(t *testing.T) {
	defer pool.LimitFreeListsForTest(1)()
	TestSimulatedNumbersPinned(t)
}
