package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"cubeftl/internal/metrics"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"ftl/die/3/prog_ns": "ftl_die_3_prog_ns",
		"host tenant.p99":   "host_tenant_p99",
		"9lives":            "_9lives",
		"already_fine:ok":   "already_fine:ok",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// Golden exposition output: a fixed registry renders to exactly these
// bytes — sorted families, a ledger row's declared kind and help,
// summary quantiles, escaped label values.
func TestWritePromGolden(t *testing.T) {
	reg := NewRegistry()
	ledger := struct {
		Runs   int64 `metric:"ftl/gc/runs counter garbage-collection cycles completed"`
		Fenced int64 `metric:"ftl/requeue/fenced_total counter flush groups requeued"`
	}{Runs: 3, Fenced: 7}
	reg.MustRegisterStruct("", &ledger, nil)
	if err := reg.RegisterGauge("ftl/write_amp", func() float64 { return 1.25 }); err != nil {
		t.Fatal(err)
	}
	h := metrics.NewHist(0)
	h.Add(1000)
	h.Add(3000)
	if err := reg.RegisterHist("ftl/read_ns", func() *metrics.Hist { return h }); err != nil {
		t.Fatal(err)
	}

	fams := reg.Families()
	fams = append(fams, PromFamily{
		Name: "cube_tenant_read_p99_ns",
		Type: "gauge",
		Help: "windowed per-tenant read p99",
		Samples: []PromSample{
			{Labels: []PromLabel{{K: "tenant", V: `a"b`}}, Value: 42},
			{Labels: []PromLabel{{K: "tenant", V: "lat"}}, Value: 17.5},
		},
	})

	var buf bytes.Buffer
	if err := WriteProm(&buf, fams); err != nil {
		t.Fatal(err)
	}

	hist := reg.Snapshot().Hists["ftl/read_ns"]
	want := strings.Join([]string{
		"# HELP cube_ftl_gc_runs garbage-collection cycles completed",
		"# TYPE cube_ftl_gc_runs counter",
		"cube_ftl_gc_runs 3",
		"# HELP cube_ftl_read_ns registry histogram ftl/read_ns",
		"# TYPE cube_ftl_read_ns summary",
		`cube_ftl_read_ns{quantile="0.5"} ` + itoa(int(hist.P50)),
		`cube_ftl_read_ns{quantile="0.99"} ` + itoa(int(hist.P99)),
		"cube_ftl_read_ns_sum 4000",
		"cube_ftl_read_ns_count 2",
		"# HELP cube_ftl_read_ns_max registry histogram max ftl/read_ns",
		"# TYPE cube_ftl_read_ns_max gauge",
		"cube_ftl_read_ns_max " + itoa(int(hist.Max)),
		"# HELP cube_ftl_requeue_fenced_total flush groups requeued",
		"# TYPE cube_ftl_requeue_fenced_total counter",
		"cube_ftl_requeue_fenced_total 7",
		"# HELP cube_ftl_write_amp registry gauge ftl/write_amp",
		"# TYPE cube_ftl_write_amp gauge",
		"cube_ftl_write_amp 1.25",
		"# HELP cube_tenant_read_p99_ns windowed per-tenant read p99",
		"# TYPE cube_tenant_read_p99_ns gauge",
		`cube_tenant_read_p99_ns{tenant="a\"b"} 42`,
		`cube_tenant_read_p99_ns{tenant="lat"} 17.5`,
		"",
	}, "\n")
	if buf.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// Rendering the same registry twice must produce identical bytes (the
// determinism contract /metrics inherits from the Report/Sampler).
func TestWritePromDeterministic(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"b/z", "a/y", "c/x"} {
		if err := reg.RegisterGauge(n, func() float64 { return 1 }); err != nil {
			t.Fatal(err)
		}
	}
	var b1, b2 bytes.Buffer
	if err := WriteProm(&b1, reg.Families()); err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&b2, reg.Families()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two renders of the same snapshot differ")
	}
	if !strings.Contains(b1.String(), "cube_a_y 1") {
		t.Errorf("missing gauge sample:\n%s", b1.String())
	}
}

func TestWritePromSkipsEmptyFamilies(t *testing.T) {
	var buf bytes.Buffer
	err := WriteProm(&buf, []PromFamily{{Name: "cube_empty", Type: "gauge"}})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty family rendered: %q", buf.String())
	}
}
