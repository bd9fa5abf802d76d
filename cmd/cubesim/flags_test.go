package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"cubeftl"
)

// parse runs a command line through cubesim's own flag declarations.
func parse(t *testing.T, args ...string) (config, error) {
	t.Helper()
	var c config
	fs := flag.NewFlagSet("cubesim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.bind(fs)
	return c, fs.Parse(args)
}

// The device rule every binary shares (stack.Spec.Validate, which
// cubeftl.New runs): zero is the documented default, a negative count,
// a month count that is negative or not finite, or a rate outside
// [0, 1] is an error naming the flag.
func TestValidateTopology(t *testing.T) {
	for _, tc := range []struct {
		args     string
		wantFlag string // "" = accepted
	}{
		{"-channels 2 -dies 4", ""},
		{"-channels 0 -dies 0 -blocks 0", ""}, // zero = device default, as in cubefleet
		{"-channels -1", "-channels"},
		{"-dies -3", "-dies"},
		{"-blocks -5", "-blocks"}, // silently became 64
		{"-pe -1", "-pe"},
		{"-retention 12", ""},
		{"-retention NaN", "-retention"},
		{"-retention -1", "-retention"},
		{"-retention +Inf", "-retention"},
		{"-pfail 1 -efail 0 -rfault 0.5 -badblocks 0.02", ""},
		{"-pfail 7", "-pfail"},
		{"-efail -0.1", "-efail"},
		{"-rfault NaN", "-rfault"},
		{"-badblocks 1.5", "-badblocks"},
	} {
		c, err := parse(t, strings.Fields(tc.args)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		err = c.dev.Validate()
		switch {
		case tc.wantFlag == "" && err != nil:
			t.Errorf("%s rejected: %v", tc.args, err)
		case tc.wantFlag != "" && err == nil:
			t.Errorf("%s accepted", tc.args)
		case tc.wantFlag != "" && !strings.Contains(err.Error(), tc.wantFlag+" "):
			t.Errorf("%s: error %q does not name %s", tc.args, err, tc.wantFlag)
		}
	}
}

func TestValidateRetryMode(t *testing.T) {
	for _, ok := range []string{"", "baseline", "ort", "ort-pr", "ort-pr-ar"} {
		if err := (&cubeftl.Options{RetryMode: ok}).Validate(); err != nil {
			t.Errorf("mode %q rejected: %v", ok, err)
		}
	}
	err := (&cubeftl.Options{RetryMode: "turbo"}).Validate()
	if err == nil {
		t.Fatal("mode \"turbo\" accepted")
	}
	if !strings.Contains(err.Error(), "-retry-mode") || !strings.Contains(err.Error(), "ort-pr-ar") {
		t.Errorf("error %q does not name the flag and the accepted modes", err)
	}
}

// The command lines the Makefile and the README use, and the empty one,
// describe the device the binary built for them before its flags were
// bound from the shared table.
func TestDeviceFromCommandLine(t *testing.T) {
	base := cubeftl.Options{FTL: "cube", Channels: 2, DiesPerChannel: 4, BlocksPerChip: 32, Seed: 1}
	with := func(f func(*cubeftl.Options)) cubeftl.Options { o := base; f(&o); return o }
	for _, tc := range []struct {
		args string
		want cubeftl.Options
	}{
		{"", base},
		{"-ftl cube -workload OLTP -requests 20000", base},
		{"-ftl page -workload Rocks -pe 2000 -retention 12",
			with(func(o *cubeftl.Options) { o.FTL, o.PECycles, o.RetentionMonths = "page", 2000, 12 })},
		{"-workload Mixed -channels 4 -dies 4",
			with(func(o *cubeftl.Options) { o.Channels, o.DiesPerChannel = 4, 4 })},
		{"-tenant hot,workload=YCSB-C,weight=8 -tenant bulk,workload=Bulk,weight=1,rate=4000 -arb wrr -width 6", base},
		{"-workload Mixed -trace-out trace.json -stats-out stats.jsonl -breakdown", base},
		{"-workload Mixed -requests 8000 -qd 16 -killdie 3 -trace-out trace.json -stats-out stats.jsonl -breakdown", base}, // make trace-demo
		{"-blocks 16 -dies 2 -seed 42 -retry-mode ort-pr-ar -refresh -wearlevel -pfail 0.001 -efail 0.01 -rfault 0.002 -badblocks 0.02 -ckpt-interval -1ms",
			cubeftl.Options{FTL: "cube", Channels: 2, DiesPerChannel: 2, BlocksPerChip: 16, Seed: 42,
				RetryMode: "ort-pr-ar", Refresh: true, WearLevel: true, ProgramFailRate: 0.001, EraseFailRate: 0.01,
				ReadFaultRate: 0.002, FactoryBadRate: 0.02, CkptInterval: -time.Millisecond}},
	} {
		c, err := parse(t, strings.Fields(tc.args)...)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if c.dev != tc.want {
			t.Errorf("%q built\n %+v, want\n %+v", tc.args, c.dev, tc.want)
		}
	}
}

// cubesim accepts exactly the flags its -h listed before the device
// flags moved into the shared table, with the repeatable -tenant spec
// in place of -queues and its three per-tenant lists (-weights, -rate,
// -prios).
func TestFlagNames(t *testing.T) {
	const want = "age arb badblocks blocks breakdown channels ckpt-interval cpuprofile dies efail ftl killdie memprofile pe pfail powercut pprof-addr prefill qd record refresh requests retention retry-mode rfault seed stats-interval stats-out tenant trace trace-out verify-mount waf-out wearlevel width workload"
	var c config
	fs := flag.NewFlagSet("cubesim", flag.ContinueOnError)
	c.bind(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flag set changed:\n got %s\nwant %s", g, want)
	}
}

// The tenant command lines of the README, the package comment and the
// verify notes build the streams the parent built from -queues and its
// three per-tenant lists, spelled there as
//
//	-queues hot=YCSB-C,bulk=Bulk -weights 8,1 -rate 0,4000
//	-queues db=OLTP,web=Web -weights 1,8
//	-queues bulk=Rocks,hot=Web -prios 0,5 -rate 20000,0
func TestTenantFromCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args string
		want []cubeftl.TenantConfig
	}{
		{"-tenant hot,workload=YCSB-C,weight=8 -tenant bulk,workload=Bulk,weight=1,rate=4000 -arb wrr -width 6", // README
			[]cubeftl.TenantConfig{
				{Name: "hot", Workload: "YCSB-C", Requests: 20000, QueueDepth: 24, Weight: 8},
				{Name: "bulk", Workload: "Bulk", Requests: 20000, QueueDepth: 24, Weight: 1, RateIOPS: 4000},
			}},
		{"-tenant hot,workload=YCSB-C,weight=8 -tenant bulk,workload=Bulk,weight=1,rate=4000 -arb wrr -width 6 -requests 3000 -blocks 32", // verify notes
			[]cubeftl.TenantConfig{
				{Name: "hot", Workload: "YCSB-C", Requests: 3000, QueueDepth: 24, Weight: 8},
				{Name: "bulk", Workload: "Bulk", Requests: 3000, QueueDepth: 24, Weight: 1, RateIOPS: 4000},
			}},
		{"-tenant db,workload=OLTP,weight=1 -tenant web,workload=Web,weight=8 -arb wrr -requests 8000", // package comment
			[]cubeftl.TenantConfig{
				{Name: "db", Workload: "OLTP", Requests: 8000, QueueDepth: 24, Weight: 1},
				{Name: "web", Workload: "Web", Requests: 8000, QueueDepth: 24, Weight: 8},
			}},
		{"-tenant bulk,workload=Rocks,rate=20000 -tenant hot,workload=Web,prio=5 -arb prio", // package comment
			[]cubeftl.TenantConfig{
				{Name: "bulk", Workload: "Rocks", Requests: 20000, QueueDepth: 24, RateIOPS: 20000},
				{Name: "hot", Workload: "Web", Requests: 20000, QueueDepth: 24, Priority: 5},
			}},
	} {
		c, err := parse(t, strings.Fields(tc.args)...)
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if got := c.tenantRuns(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%q built\n %+v, want\n %+v", tc.args, got, tc.want)
		}
	}
}

// A -tenant spec names its workload, or runs the one its name names; its
// depth is -qd, wherever -qd stands on the line, unless depth= sets it.
// The shared decoder's range rules hold: the negative and fractional
// weights and the fractional priority the per-tenant lists silently
// truncated are errors naming the field.
func TestParseTenants(t *testing.T) {
	c, err := parse(t, "-tenant", "Rocks", "-tenant", "db,workload=OLTP,depth=8", "-qd", "4", "-requests", "500")
	if err != nil {
		t.Fatal(err)
	}
	want := []cubeftl.TenantConfig{
		{Name: "Rocks", Workload: "Rocks", Requests: 500, QueueDepth: 4},
		{Name: "db", Workload: "OLTP", Requests: 500, QueueDepth: 8},
	}
	if got := c.tenantRuns(); !reflect.DeepEqual(got, want) {
		t.Errorf("built\n %+v, want\n %+v", got, want)
	}
	for spec, field := range map[string]string{
		"db,weight=-3": "weight", "web,weight=8.9": "weight", "db,prio=1.5": "prio",
		"lat,slo=2ms": "slo", ",workload=OLTP": "empty name",
	} {
		_, err := parse(t, "-tenant", spec)
		if err == nil {
			t.Errorf("-tenant %q accepted", spec)
		} else if !strings.Contains(err.Error(), field) {
			t.Errorf("-tenant %q: error %q does not name %s", spec, err, field)
		}
	}
}

func TestParsePowercut(t *testing.T) {
	pc, err := parsePowercut("")
	if err != nil || pc.mode != pcOff {
		t.Fatalf("empty spec = %+v, %v", pc, err)
	}
	pc, err = parsePowercut("random")
	if err != nil || pc.mode != pcRandom {
		t.Fatalf("random spec = %+v, %v", pc, err)
	}
	pc, err = parsePowercut(" 5ms ")
	if err != nil || pc.mode != pcAt || pc.at != 5*time.Millisecond {
		t.Fatalf("duration spec = %+v, %v", pc, err)
	}
	for _, bad := range []string{"soon", "5", "-2ms", "0s"} {
		if _, err := parsePowercut(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), "-powercut") {
			t.Errorf("spec %q error %q does not name -powercut", bad, err)
		}
	}
}

func TestParseAge(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want float64
	}{
		{"", 0},
		{"3y", 36},
		{"2.5y", 30},
		{"18mo", 18},
		{" 1mo ", 1},
		{"730h", 1},
	} {
		got, err := parseAge(tc.spec)
		if err != nil {
			t.Errorf("parseAge(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseAge(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	if got, err := parseAge("100y"); err != nil || got != maxAgeMonths {
		t.Errorf("parseAge(\"100y\") = %v, %v; want the %d-month cap", got, err, maxAgeMonths)
	}
	for _, bad := range []string{"soon", "3", "-1y", "0mo", "xy", "-5ms", "Infy", "NaNy", "infmo", "nanmo", "101y", "1e300y", "1201mo", "8760001h"} {
		if _, err := parseAge(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		} else if !strings.Contains(err.Error(), "-age") {
			t.Errorf("spec %q error %q does not name -age", bad, err)
		}
	}
}

// FuzzParseAge: any -age spec is an error naming -age, or a positive
// number of months no larger than the cap.
func FuzzParseAge(f *testing.F) {
	for _, seed := range []string{"", "3y", "2.5y", "18mo", " 1mo ", "730h", "100y", "101y", "1e300y", "NaNy", "-1y", "0x1p-1074y", "9223372036854775807ns", "mo", "y"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		months, err := parseAge(spec)
		switch {
		case err != nil:
			if !strings.Contains(err.Error(), "-age") {
				t.Fatalf("%q: error %q does not name -age", spec, err)
			}
		case strings.TrimSpace(spec) == "":
			if months != 0 {
				t.Fatalf("empty spec gave %v months", months)
			}
		case !(months > 0 && months <= maxAgeMonths):
			t.Fatalf("%q gave %v months, outside (0, %d]", spec, months, maxAgeMonths)
		}
	})
}

func TestValidateRecoveryFlags(t *testing.T) {
	cut := powercutSpec{mode: pcAt, at: time.Millisecond}
	if err := validateRecoveryFlags(cut, false, "", ""); err != nil {
		t.Fatalf("plain power cut rejected: %v", err)
	}
	// Without a cut, any combination passes (the flags are inert).
	if err := validateRecoveryFlags(powercutSpec{}, true, "t.trace", "out"); err != nil {
		t.Fatalf("inert flags rejected: %v", err)
	}
	for _, tc := range []struct {
		tenants       bool
		trace, record string
		wantFlag      string
	}{
		{true, "", "", "-tenant"},
		{false, "run.trace", "", "-trace"},
		{false, "", "out.trace", "-record"},
	} {
		err := validateRecoveryFlags(cut, tc.tenants, tc.trace, tc.record)
		if err == nil {
			t.Fatalf("combo %+v accepted", tc)
		}
		if !strings.Contains(err.Error(), tc.wantFlag) {
			t.Errorf("combo error %q does not name %s", err, tc.wantFlag)
		}
	}
}
