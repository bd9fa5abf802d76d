package host

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// extraKeys stands in for the fields the two binaries add to the shared
// spec: cubesim's workload= (any name) and cubeserved's slo= (a
// non-negative duration).
func extraKeys(slo *time.Duration) map[string]func(string) error {
	return map[string]func(string) error{
		"workload": func(string) error { return nil },
		"slo": func(v string) (err error) {
			if *slo, err = time.ParseDuration(v); err == nil && *slo < 0 {
				err = fmt.Errorf("negative duration %v", *slo)
			}
			return err
		},
	}
}

// Every field of a tenant spec is range-checked: negative weights and
// depths (which used to become 1 and 32), fractional weights and
// priorities (which cubesim's per-tenant lists truncated), NaN,
// negative, infinite or vanishing rates (which used to mean "uncapped"
// or hang the run) and negative SLOs are errors that name the field.
func TestParseQueueRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		field string // "" = accepted
	}{
		{"lat,weight=8,slo=2ms", ""},
		{"bulk,weight=0,depth=0,rate=0,prio=-3", ""},
		{"bulk,rate=1e-9,depth=64", ""},
		{"db,workload=OLTP,weight=1", ""},
		{"bulk,weight=-1", "weight"},
		{"bulk,depth=-32", "depth"},
		{"bulk,rate=NaN", "rate"},
		{"bulk,rate=-100", "rate"},
		{"bulk,rate=-Inf", "rate"},
		{"bulk,rate=+Inf", "rate"},
		{"bulk,rate=1e-12", "rate"},
		{"lat,slo=-2ms", "slo"},
		{"lat,color=red", "color"},
		{"db,workload=OLTP,weight=-3", "weight"},
		{"web,workload=Web,weight=8.9", "weight"},
		{"db,workload=OLTP,prio=1.5", "prio"},
	} {
		var slo time.Duration
		_, err := ParseQueue(tc.spec, extraKeys(&slo))
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

// FuzzParseQueue: any tenant spec, with either binary's extra fields,
// is an error, or a named queue whose every field is in range.
func FuzzParseQueue(f *testing.F) {
	for _, seed := range []string{"lat,weight=8,slo=2ms", "bulk,weight=1", "a,depth=0,prio=-1,rate=1e-9", ",", "x,rate=NaN", "x,weight=-1", "x,slo=-1s", "x,=", "x,rate=1e400",
		"db,workload=OLTP,weight=-3", "web,weight=8.9", "x,prio=1.5", "Rocks"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		var slo time.Duration
		q, err := ParseQueue(spec, extraKeys(&slo))
		if err != nil {
			return
		}
		rateOK := q.RateIOPS == 0 || (q.RateIOPS >= MinRateIOPS && !math.IsInf(q.RateIOPS, 1))
		if q.Name == "" || q.Weight < 0 || q.Depth < 0 || slo < 0 || !rateOK {
			t.Fatalf("%q accepted as %+v, slo %v", spec, q, slo)
		}
	})
}
