package cubeftl

// BenchmarkFigure regenerates every registered figure, so `go test
// -bench=Figure -benchmem` reproduces the evaluation end to end; the
// other benchmarks measure the library itself. Paper-vs-measured
// numbers are recorded in EXPERIMENTS.md.

import (
	"io"
	"testing"
	"time"

	"cubeftl/internal/experiment"
	"cubeftl/internal/workload"
)

// BenchmarkFigure runs each figure of FigureIDs as a sub-benchmark;
// iteration i is the run `paperfig -seed i+1 <id>` prints.
func BenchmarkFigure(b *testing.B) {
	for _, id := range FigureIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				figures[id](uint64(i + 1))
			}
		})
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

// BenchmarkWorkloadThroughput measures raw simulator speed: simulated
// host requests processed per wall-clock second under cubeFTL.
func BenchmarkWorkloadThroughput(b *testing.B) {
	o := experiment.DefaultSSDOpts()
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
