package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"cubeftl"
	"cubeftl/internal/server"
)

// parse runs a command line through cubeserved's own flag declarations.
func parse(args ...string) (config, error) {
	var c config
	fs := flag.NewFlagSet("cubeserved", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c.bind(fs)
	return c, fs.Parse(args)
}

// The command lines the Makefile and the README use, and the empty one,
// describe the device the binary built for them before its device flags
// were bound from the shared table: 4x2x64, seed 1, recovery on.
func TestDeviceFromCommandLine(t *testing.T) {
	base := cubeftl.Options{FTL: "cube", Channels: 4, DiesPerChannel: 2, BlocksPerChip: 64, Seed: 1, Recovery: true}
	small, page := base, base
	small.BlocksPerChip = 16
	page.FTL, page.Channels, page.DiesPerChannel, page.Seed, page.Recovery = "page", 1, 1, 9, false
	for args, want := range map[string]cubeftl.Options{
		"": base,
		"-addr 127.0.0.1:7443 -tenant lat,weight=8,slo=2ms -tenant bulk,weight=1":      base,  // README
		"-addr 127.0.0.1:7491 -metrics-addr 127.0.0.1:9491 -blocks 16 -slo":            small, // make metrics-smoke
		"-ftl page -channels 1 -dies 1 -seed 9 -recovery=false -prefill 100 -arb prio": page,
	} {
		c, err := parse(strings.Fields(args)...)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if c.srv.Device != want {
			t.Errorf("%q built\n %+v, want\n %+v", args, c.srv.Device, want)
		}
	}
}

// cubeserved accepts exactly the flags its -h listed before the device
// flags moved into the shared table.
func TestFlagNames(t *testing.T) {
	const want = "addr arb blocks channels cpuprofile dies events-out ftl memprofile metrics-addr pprof-addr prefill recovery seed slo slo-interval span-sample tenant width"
	var c config
	fs := flag.NewFlagSet("cubeserved", flag.ContinueOnError)
	c.bind(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flag set changed:\n got %s\nwant %s", g, want)
	}
}

// The -tenant lines of the README and the Makefile build the tenants
// the binary built for them before the spec was decoded by
// host.ParseQueue. make metrics-smoke names none, so main's default
// pair (lat, bulk) serves.
func TestTenantFromCommandLine(t *testing.T) {
	for args, want := range map[string][]server.TenantDef{
		"-addr 127.0.0.1:7443 -tenant lat,weight=8,slo=2ms -tenant bulk,weight=1 -slo": { // README
			{Name: "lat", Weight: 8, SLOReadP99: 2 * time.Millisecond},
			{Name: "bulk", Weight: 1},
		},
		"-addr 127.0.0.1:7491 -metrics-addr 127.0.0.1:9491 -blocks 16 -slo": nil, // make metrics-smoke
	} {
		c, err := parse(strings.Fields(args)...)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if !reflect.DeepEqual(c.srv.Tenants, want) {
			t.Errorf("%q built\n %+v, want\n %+v", args, c.srv.Tenants, want)
		}
	}
}

// cubeserved's one field beyond the shared decoder's is slo=, a
// non-negative duration (0 = best-effort); cubesim's workload= is not
// one of its fields. host's TestParseQueueRejectsOutOfRange holds the
// range cases of the shared fields.
func TestParseTenantRejectsOutOfRange(t *testing.T) {
	for spec, field := range map[string]string{
		"lat,weight=8,slo=2ms": "",
		"lat,slo=0":            "",
		"lat,slo=-2ms":         "slo",
		"lat,slo=soon":         "slo",
		"bulk,weight=-1":       "weight",
		"lat,workload=OLTP":    "workload",
	} {
		_, err := parse("-tenant", spec)
		switch {
		case field == "" && err != nil:
			t.Errorf("%q: %v", spec, err)
		case field != "" && err == nil:
			t.Errorf("%q accepted", spec)
		case field != "" && !strings.Contains(err.Error(), field):
			t.Errorf("%q: error %q does not name %s", spec, err, field)
		}
	}
}
