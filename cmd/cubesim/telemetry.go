// Observability wiring for cubesim: Chrome trace export, periodic JSONL
// telemetry snapshots and per-stage latency attribution.
package main

import (
	"fmt"
	"os"

	"cubeftl"
)

// startTelemetry enables the telemetry layer on dev per the flags (after
// prefill/ResetStats so measurements cover only the measured run) and
// opens the stats sink. Call finishTelemetry after the run.
func (o *config) startTelemetry(dev *cubeftl.SSD) error {
	if o.killDie >= 0 {
		if err := dev.KillDie(o.killDie); err != nil {
			return err
		}
		fmt.Printf("chaos: die %d set to fail all programs and erases\n", o.killDie)
	}
	if o.traceOut == "" && o.stats.Out == "" && !o.breakdown {
		return nil
	}
	dev.EnableTelemetry(cubeftl.TelemetryConfig{Trace: o.traceOut != ""})
	if o.stats.Out != "" {
		f, err := os.Create(o.stats.Out)
		if err != nil {
			return err
		}
		if err := dev.StartStats(f, o.stats.Interval); err != nil {
			f.Close()
			return err
		}
		o.statsFile = f
	}
	return nil
}

// closeStats releases the stats sink on the paths that leave before
// finishTelemetry has.
func (o *config) closeStats() {
	if o.statsFile != nil {
		o.statsFile.Close()
	}
}

// finishTelemetry drains the telemetry sinks: final stats snapshot,
// Chrome trace file, and the stage-attribution table. Nothing to drain
// when the layer was never started (the power-cut path).
func (o *config) finishTelemetry(dev *cubeftl.SSD) error {
	if !dev.TelemetryEnabled() {
		return nil
	}
	if o.statsFile != nil {
		if err := dev.CloseStats(); err != nil {
			return err
		}
		if err := o.statsFile.Close(); err != nil {
			return err
		}
		o.statsFile = nil
		fmt.Printf("stats: wrote %s (one JSON object per %v of simulated time)\n",
			o.stats.Out, o.stats.Interval)
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := dev.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", o.traceOut)
	}
	if o.breakdown {
		if table := dev.BreakdownTable(); table != "" {
			fmt.Printf("\nstage-latency attribution (where the time went):\n%s", table)
		}
	}
	return nil
}
