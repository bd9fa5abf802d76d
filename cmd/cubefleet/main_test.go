package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cubeftl"
)

// parse runs a command line through cubefleet's own flag declarations
// and resolves it the way main does.
func parse(t *testing.T, args string) (config, error) {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("cubefleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.bind(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return c, c.finish()
}

const fixture = "-trace internal/workload/testdata/msr_sample.csv "

// The command lines the Makefile uses, and the bare one, describe the
// per-shard device — and hand the fleet the same one — that the binary
// built for them before its device flags were bound from the shared
// table: 0x0x16, seed 1, the device's own topology default.
func TestDeviceFromCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args string
		want cubeftl.Options
	}{
		{fixture, cubeftl.Options{FTL: "cube", BlocksPerChip: 16, Seed: 1}},
		{fixture + "-shards 8 -tenants 1024 -blocks 8 -channels 1 -dies 2 -cache-pages 1024 -cache-policy 2q -cache-mode back -compress 20", // FLEET_SMOKE
			cubeftl.Options{FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 8, Seed: 1}},
		{fixture + "-shards 8 -tenants 2048 -placement capacity -capacity-jitter 0.25 -blocks 12 -channels 1 -dies 2 -repeat 4 -cache-pages 2048 -cache-policy 2q -cache-mode back -compress 20", // fleet-demo
			cubeftl.Options{FTL: "cube", Channels: 1, DiesPerChannel: 2, BlocksPerChip: 12, Seed: 1}},
		{fixture + "-single -ftl page -seed 7 -pe 1000 -retention 3",
			cubeftl.Options{FTL: "page", BlocksPerChip: 16, Seed: 7, PECycles: 1000, RetentionMonths: 3}},
	} {
		c, err := parse(t, tc.args)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if c.dev != tc.want {
			t.Errorf("%q built\n %+v, want\n %+v", tc.args, c.dev, tc.want)
		}
		f, d := c.fleet, tc.want
		if f.Policy != d.FTL || f.Seed != d.Seed || f.BlocksPerChip != d.BlocksPerChip || f.Channels != d.Channels ||
			f.DiesPerChannel != d.DiesPerChannel || f.PE != d.PECycles || f.RetentionMonths != d.RetentionMonths {
			t.Errorf("%q: the fleet's shards are not that device: %+v", tc.args, f.Config)
		}
	}
	c, _ := parse(t, fixture+"-cache-pages 1024 -cache-policy 2q -cache-mode back -qd 16")
	if f := c.fleet; f.Cache.SizePages != 1024 || f.Cache.Policy != cubeftl.Cache2Q || f.Cache.Mode != cubeftl.CacheWriteBack ||
		f.SampleIntervalNs != 0 || c.trace.QueueDepth != 16 {
		t.Errorf("cache / sampling / depth flags resolved to %+v, trace %+v", f.Config, c.trace)
	}
	if c, _ := parse(t, fixture+"-stats-out s.jsonl"); c.fleet.SampleIntervalNs != 1e6 {
		t.Errorf("-stats-out left sampling at %d ns, want the 1ms -stats-interval default", c.fleet.SampleIntervalNs)
	}
}

// What the library refused as strings before the fleet's options were
// typed, the binary refuses where it reads the flag; the device rule is
// the one cubesim applies.
func TestBadFlagsRejected(t *testing.T) {
	for args, want := range map[string]string{
		"-cache-mode sideways": "sideways",
		"-channels -1":         "-channels",
		"-retention NaN":       "-retention",
	} {
		if _, err := parse(t, fixture+args); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error naming %s", args, err, want)
		}
	}
}

// A float flag that is not a finite, non-negative number is refused by
// name, fleet and -single alike: NaN used to surface as an out-of-order
// timestamp, or replay the trace with every gap collapsed, or mean 0.
func TestNonFiniteFloatFlagsRejected(t *testing.T) {
	const trace = "-trace ../../internal/workload/testdata/msr_sample.csv -blocks 8 -channels 1 -dies 2 "
	for _, tc := range []struct{ args, flag string }{
		{"-compress NaN", "-compress"},
		{"-compress NaN -single", "-compress"},
		{"-compress -2 -single", "-compress"},
		{"-compress +Inf", "-compress"},
		{"-placement capacity -capacity-jitter NaN", "-capacity-jitter"},
		{"-placement capacity -capacity-jitter -2", "-capacity-jitter"},
		{"-capacity-jitter Inf", "-capacity-jitter"},
		{"-pe 2000 -age-jitter NaN", "-age-jitter"},
		{"-pe 2000 -age-jitter -0.5", "-age-jitter"},
	} {
		c, err := parse(t, trace+tc.args)
		if err == nil {
			err = c.run(io.Discard, io.Discard)
		}
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%s: got %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// -single writes -stats-out through the device's own sampler — a single
// device's schema, one JSON object per line — instead of ignoring it.
func TestSingleHonoursStatsOut(t *testing.T) {
	const trace = "-trace ../../internal/workload/testdata/msr_sample.csv -blocks 8 -channels 1 -dies 2 -compress 20 -single "
	out := filepath.Join(t.TempDir(), "stats.jsonl")
	c, err := parse(t, trace+"-stats-out "+out)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.run(io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("%d stats lines, want one per millisecond of the replay", len(lines))
	}
	for i, line := range lines {
		var smp struct {
			TsNs    *int64            `json:"ts_ns"`
			Tenants []json.RawMessage `json:"tenants"`
			Dies    []json.RawMessage `json:"dies"`
			Metrics struct {
				Gauges map[string]float64 `json:"gauges"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(line, &smp); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if smp.TsNs == nil || len(smp.Tenants) != 1 || len(smp.Dies) != 2 || smp.Metrics.Gauges["cube/ort/hits"] < 0 {
			t.Fatalf("line %d is not a device sample: %s", i, line)
		}
		if _, ok := smp.Metrics.Gauges["ftl/gc/runs"]; !ok {
			t.Fatalf("line %d lacks the device ledger: %s", i, line)
		}
	}

}

// cubefleet accepts exactly the flags its -h listed before the device
// flags moved into the shared table.
func TestFlagNames(t *testing.T) {
	const want = "age-jitter blocks cache-mode cache-pages cache-policy capacity-jitter channels compress cpuprofile dies fleet-max-requests ftl max-requests memprofile pe placement pprof-addr prefill qd queues repeat retention seed shards single stats-interval stats-out tenants tolerant trace"
	var c config
	fs := flag.NewFlagSet("cubefleet", flag.ContinueOnError)
	c.bind(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flag set changed:\n got %s\nwant %s", g, want)
	}
}
