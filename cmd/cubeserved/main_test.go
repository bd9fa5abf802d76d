package main

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"cubeftl"
	"cubeftl/internal/host"
)

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
		var c config
		fs := flag.NewFlagSet("cubeserved", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c.bind(fs)
		if err := fs.Parse(strings.Fields(args)); err != nil {
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

// Every field of a -tenant spec is range-checked: negative weights and
// depths (which used to become 1 and 32), NaN, negative, infinite or
// vanishing rates (which used to mean "uncapped" or hang the run) and
// negative SLOs are errors that name the field.
func TestParseTenantRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		field string // "" = accepted
	}{
		{"lat,weight=8,slo=2ms", ""},
		{"bulk,weight=0,depth=0,rate=0,prio=-3", ""},
		{"bulk,rate=1e-9,depth=64", ""},
		{"bulk,weight=-1", "weight"},
		{"bulk,depth=-32", "depth"},
		{"bulk,rate=NaN", "rate"},
		{"bulk,rate=-100", "rate"},
		{"bulk,rate=-Inf", "rate"},
		{"bulk,rate=+Inf", "rate"},
		{"bulk,rate=1e-12", "rate"},
		{"lat,slo=-2ms", "slo"},
		{"lat,color=red", "color"},
	} {
		_, err := parseTenant(tc.spec)
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%q: %v", tc.spec, err)
		case tc.field != "" && err == nil:
			t.Errorf("%q accepted", tc.spec)
		case tc.field != "" && !strings.Contains(err.Error(), tc.field):
			t.Errorf("%q: error %q does not name %s", tc.spec, err, tc.field)
		}
	}
}

// FuzzParseTenant: any -tenant spec is an error, or a named tenant whose
// every field is in range.
func FuzzParseTenant(f *testing.F) {
	for _, seed := range []string{"lat,weight=8,slo=2ms", "bulk,weight=1", "a,depth=0,prio=-1,rate=1e-9", ",", "x,rate=NaN", "x,weight=-1", "x,slo=-1s", "x,=", "x,rate=1e400"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		td, err := parseTenant(spec)
		if err != nil {
			return
		}
		rateOK := td.RateIOPS == 0 || (td.RateIOPS >= host.MinRateIOPS && !math.IsInf(td.RateIOPS, 1))
		if td.Name == "" || td.Weight < 0 || td.Depth < 0 || td.SLOReadP99 < 0 || !rateOK {
			t.Fatalf("%q accepted as %+v", spec, td)
		}
	})
}
