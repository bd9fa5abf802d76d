package cubeftl

// One benchmark per data figure/table of the paper, each regenerating
// its experiment and reporting the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` reproduces the evaluation
// end to end. Paper-vs-measured numbers are recorded in EXPERIMENTS.md.

import (
	"io"
	"testing"
	"time"

	"cubeftl/internal/experiment"
	"cubeftl/internal/workload"
)

// benchOpts is the SSD-level configuration for benchmark runs: large
// enough for steady-state behavior, small enough to iterate.
func benchOpts() experiment.SSDOpts {
	o := experiment.DefaultSSDOpts()
	o.Requests = 8000
	return o
}

// BenchmarkFig05IntraLayerSimilarity reproduces Fig 5: deltaH ~= 1
// across word lines of an h-layer, identical per-WL tPROG.
func BenchmarkFig05IntraLayerSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig05(uint64(i + 1))
		b.ReportMetric(r.MaxDeltaH, "maxDeltaH")
	}
}

// BenchmarkFig06InterLayerVariability reproduces Fig 6: deltaV 1.6
// (fresh) -> 2.3 (2K P/E + 1 year), with per-block differences.
func BenchmarkFig06InterLayerVariability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig06(uint64(i + 1))
		b.ReportMetric(r.DeltaV["0K"], "deltaV-fresh")
		b.ReportMetric(r.DeltaV["2K+1yr"], "deltaV-EOL")
	}
}

// BenchmarkFig08VfySkipBER reproduces Fig 8: per-state skip budgets and
// the ~16.2% tPROG saving of safe verify skipping.
func BenchmarkFig08VfySkipBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig08(uint64(i + 1))
		b.ReportMetric(100*r.TPROGReduction, "skip-tPROG-%")
		b.ReportMetric(r.SafeSkipMean[6], "P7-skips")
	}
}

// BenchmarkFig10AdjustMargins reproduces Fig 10: safe V_Start/V_Final
// margins per h-layer at end of life.
func BenchmarkFig10AdjustMargins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig10(uint64(i + 1))
		max := 0
		for _, mv := range r.SafeMarginMV {
			if mv > max {
				max = mv
			}
		}
		b.ReportMetric(float64(max), "best-margin-mV")
	}
}

// BenchmarkFig11BerEP1Conversion reproduces Fig 11: the S_M -> margin
// conversion with the 1.7 -> 320 mV -> ~19.7% anchor.
func BenchmarkFig11BerEP1Conversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig11(uint64(i + 1))
		b.ReportMetric(r.Correlation, "berEP1-corr")
		for j, sm := range r.SM {
			if sm == 1.7 {
				b.ReportMetric(100*r.TPROGRed[j], "SM1.7-tPROG-%")
			}
		}
	}
}

// BenchmarkFig13ProgramOrderBER reproduces Fig 13: the three program
// orders are reliability-equivalent (< 3% apart).
func BenchmarkFig13ProgramOrderBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig13(uint64(i + 1))
		worst := 0.0
		for _, v := range r.NormBER {
			if d := v - 1; d > worst {
				worst = d
			}
			if d := 1 - v; d > worst {
				worst = d
			}
		}
		b.ReportMetric(100*worst, "order-BER-dev-%")
	}
}

// BenchmarkFig14ReadRetry reproduces Fig 14: the PS-aware ORT reuse
// cuts mean NumRetry by ~66%.
func BenchmarkFig14ReadRetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig14(uint64(i + 1))
		b.ReportMetric(r.UnawareMean, "unaware-retries")
		b.ReportMetric(r.AwareMean, "aware-retries")
		b.ReportMetric(100*r.Reduction(), "reduction-%")
	}
}

func reportFig17(b *testing.B, r *experiment.Fig17Result) {
	b.Helper()
	gain, _ := r.MaxGain(2)
	b.ReportMetric(100*gain, "cube-max-gain-%")
	vg, _ := r.MaxGain(1)
	b.ReportMetric(100*vg, "vert-max-gain-%")
}

// BenchmarkFig17aIOPSFresh reproduces Fig 17(a): normalized IOPS of the
// six workloads on the fresh device.
func BenchmarkFig17aIOPSFresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		reportFig17(b, experiment.Fig17(o))
	}
}

// BenchmarkFig17bIOPSMidAge reproduces Fig 17(b): 2K P/E + 1-month
// retention (30% of reads retry).
func BenchmarkFig17bIOPSMidAge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		o.PECycles, o.RetentionMonths = 2000, 1
		reportFig17(b, experiment.Fig17(o))
	}
}

// BenchmarkFig17cIOPSEndOfLife reproduces Fig 17(c): 2K P/E + 1-year
// retention (90% of reads retry; Proxy gains most).
func BenchmarkFig17cIOPSEndOfLife(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		o.PECycles, o.RetentionMonths = 2000, 12
		reportFig17(b, experiment.Fig17(o))
	}
}

// BenchmarkFig18WriteLatencyCDF reproduces Fig 18(a): the Rocks write-
// latency CDF under the four FTLs.
func BenchmarkFig18WriteLatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.Fig18(o)
		b.ReportMetric(float64(r.WriteP90[0])/1e6, "page-wP90-ms")
		b.ReportMetric(float64(r.WriteP90[3])/1e6, "cube-wP90-ms")
	}
}

// BenchmarkFig18ReadLatencyCDF reproduces Fig 18(b): the Rocks read-
// latency CDF under the four FTLs.
func BenchmarkFig18ReadLatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.Fig18(o)
		b.ReportMetric(float64(r.ReadP90[0])/1e6, "page-rP90-ms")
		b.ReportMetric(float64(r.ReadP90[3])/1e6, "cube-rP90-ms")
	}
}

// BenchmarkVfySkipReduction isolates §4.1.1's 16.2% anchor.
func BenchmarkVfySkipReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig08(uint64(i + 1))
		b.ReportMetric(100*r.TPROGReduction, "tPROG-reduction-%")
	}
}

// BenchmarkTprogReductionByFTL reproduces §6.2's audit: vertFTL ~8%,
// cubeFTL ~30% (follower WLs; ~22% overall with leaders).
func BenchmarkTprogReductionByFTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.TprogAudit(o)
		b.ReportMetric(100*r.VertReduction(), "vert-%")
		b.ReportMetric(100*r.CubeReduction(), "cube-%")
	}
}

// BenchmarkORTOverhead reproduces §5.1's space-overhead computation.
func BenchmarkORTOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev, err := New(DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		cs := dev.Cube()
		frac := float64(cs.ORTBytes) / float64(dev.CapacityBytes())
		b.ReportMetric(frac*1e6, "ORT-ppm")
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationMuThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.AblationMuThreshold(o)
		b.ReportMetric(r.IOPS[2], "mu0.9-IOPS") // the paper's threshold
	}
}

func BenchmarkAblationActiveBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.AblationActiveBlocks(o)
		b.ReportMetric(r.IOPS[1], "two-blocks-IOPS") // the paper's choice
	}
}

func BenchmarkAblationProgramOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.AblationProgramOrder(o)
		b.ReportMetric(r.IOPS[2], "MOS-IOPS")
	}
}

func BenchmarkAblationORTGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.AblationORTGranularity(o)
		b.ReportMetric(r.Series("retries/read")[0], "perlayer-retries")
	}
}

func BenchmarkAblationSafetyCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.AblationSafetyCheck(o)
		b.ReportMetric(r.Series("reprograms")[0], "reprograms-on")
	}
}

// BenchmarkWorkloadThroughput measures raw simulator speed: simulated
// host requests processed per wall-clock second under cubeFTL.
func BenchmarkWorkloadThroughput(b *testing.B) {
	o := benchOpts()
	o.Requests = 4000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiment.RunWorkload(experiment.PolicyCube, workload.Mongo, o)
		if out.Result.Completed != int64(o.Requests) {
			b.Fatalf("incomplete run: %d", out.Result.Completed)
		}
	}
}

// benchMixed runs the Mixed workload once with or without the full
// telemetry layer (tracer + sampler to a discard sink + stage
// attribution) — the pair quantifies observability overhead.
func benchMixed(b *testing.B, enableTelemetry bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		dev, err := New(Options{FTL: FTLCube, BlocksPerChip: 32, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		dev.Prefill(int64(dev.LogicalPages()) * 6 / 10)
		dev.ResetStats()
		if enableTelemetry {
			dev.EnableTelemetry(TelemetryConfig{Trace: true})
			if err := dev.StartStats(io.Discard, time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		st, err := dev.RunWorkload("Mixed", 4000, 24)
		if err != nil {
			b.Fatal(err)
		}
		if st.Requests != 4000 {
			b.Fatalf("incomplete run: %d", st.Requests)
		}
		if enableTelemetry {
			if err := dev.CloseStats(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMixedTelemetryOff is the baseline for the observability
// overhead contract: telemetry disabled entirely (nil hub in the
// datapath).
func BenchmarkMixedTelemetryOff(b *testing.B) { benchMixed(b, false) }

// BenchmarkMixedTelemetryOn runs the identical workload with spans,
// events, stage attribution, and 1 ms sampling all enabled.
func BenchmarkMixedTelemetryOn(b *testing.B) { benchMixed(b, true) }

// BenchmarkExtensionTailLatency runs the §8 future-work extension:
// PS-aware reads plus program/erase suspend-resume for deterministic
// read latency at end of life.
func BenchmarkExtensionTailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.ExtTailLatency(o)
		b.ReportMetric(float64(r.ReadP999[0])/1e6, "page-rP999-ms")
		b.ReportMetric(float64(r.ReadP999[3])/1e6, "cube+susp-rP999-ms")
		b.ReportMetric(float64(r.SpreadNs[3])/1e6, "cube+susp-spread-ms")
	}
}

// BenchmarkRelatedWork runs the §7 comparison: cubeFTL vs the
// PS-unaware acceleration baselines across the lifetime.
func BenchmarkRelatedWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Seed = uint64(i + 1)
		r := experiment.RelWork(o)
		b.ReportMetric(r.Norm[0][1], "isp-fresh-norm")
		b.ReportMetric(r.Norm[1][1], "isp-EOL-norm")
		b.ReportMetric(r.Norm[1][3], "cube-EOL-norm")
	}
}
