package telemetry

// Prometheus text exposition (version 0.0.4) rendering, stdlib only.
// The renderer is deterministic: families are emitted sorted by name
// and samples in the order their collector appended them, so a fixed
// snapshot always renders to byte-identical output — the same contract
// the Sampler and fleet Report keep.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cubeftl/internal/metrics"
)

// PromLabel is one label pair on a sample.
type PromLabel struct {
	K, V string
}

// PromSample is one exposition line of a family: optional name suffix
// (summary _sum/_count lines), optional labels, and the value.
type PromSample struct {
	Suffix string // "", "_sum", "_count"
	Labels []PromLabel
	Value  float64
}

// PromFamily is one metric family: a name already in exposition form
// (sanitized, prefixed), a TYPE (counter | gauge | summary), an
// optional HELP string, and its samples.
type PromFamily struct {
	Name    string
	Type    string
	Help    string
	Samples []PromSample
}

// PromName sanitizes a registry-style slash-separated name into a
// legal Prometheus metric name: every character outside
// [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_' prefix.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
		}
		if ok {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a HELP string or label value per the exposition
// format: backslash, double quote (label values only — harmless in
// HELP), and newline.
func promEscape(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// BoolValue is a flag's sample value: 1 when set.
func BoolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// promValue formats a sample value: integers without an exponent or
// trailing zeros, everything else in shortest round-trip form.
func promValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders the families in sorted-name order. Families with
// no samples are skipped; families that share a name render as one,
// their samples in the order given — so each shard of a fleet can bring
// its own families, labelled with the shard.
func WriteProm(w io.Writer, fams []PromFamily) error {
	sorted := make([]*PromFamily, 0, len(fams))
	for i := range fams {
		if len(fams[i].Samples) > 0 {
			sorted = append(sorted, &fams[i])
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, f := range sorted {
		if i == 0 || sorted[i-1].Name != f.Name {
			if f.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, promEscape(f.Help))
			}
			typ := f.Type
			if typ == "" {
				typ = "untyped"
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, typ)
		}
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=\"%s\"", PromName(l.K), promEscape(l.V))
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(promValue(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// AppendLedger adds the declared numbers of the ledger struct ptr
// points to (metrics.Walk) to fams: one sample per row, carrying
// labels, in the family "cube_" + PromName(declared name) with the
// declared kind and help. The family is created on first use, so
// walking one struct per tenant with a tenant label fills one family
// per counter.
func AppendLedger(fams []PromFamily, ptr any, labels ...PromLabel) []PromFamily {
rows:
	for _, row := range metrics.Walk(ptr) {
		if row.Name == "" {
			continue
		}
		name, sample := "cube_"+PromName(row.Name), PromSample{Labels: labels, Value: row.Get()}
		for i := range fams {
			if fams[i].Name == name {
				fams[i].Samples = append(fams[i].Samples, sample)
				continue rows
			}
		}
		fams = append(fams, PromFamily{Name: name, Type: row.Kind, Help: row.Help, Samples: []PromSample{sample}})
	}
	return fams
}

// SnapshotFamilies converts a registry snapshot into exposition
// families under the "cube_" namespace, every sample carrying labels:
// counters gain the _total suffix, gauges map directly, and histograms
// render as summaries (quantile 0.5/0.99 samples plus _sum and _count)
// with the observed max as a companion _max gauge. Output order is
// fully determined by the sorted family names.
func SnapshotFamilies(s Snapshot, labels ...PromLabel) []PromFamily {
	quantile := func(q string) []PromLabel {
		return append(labels[:len(labels):len(labels)], PromLabel{K: "quantile", V: q})
	}
	fams := make([]PromFamily, 0, len(s.Counters)+len(s.Gauges)+2*len(s.Hists))
	for _, n := range sortedKeys(s.Counters) {
		fams = append(fams, PromFamily{
			Name: "cube_" + PromName(n) + "_total",
			Type: "counter",
			Help: "registry counter " + n,
			Samples: []PromSample{
				{Labels: labels, Value: float64(s.Counters[n])},
			},
		})
	}
	for _, n := range sortedKeys(s.Gauges) {
		fams = append(fams, PromFamily{
			Name: "cube_" + PromName(n),
			Type: "gauge",
			Help: "registry gauge " + n,
			Samples: []PromSample{
				{Labels: labels, Value: s.Gauges[n]},
			},
		})
	}
	for _, n := range sortedKeys(s.Hists) {
		h := s.Hists[n]
		base := "cube_" + PromName(n)
		fams = append(fams, PromFamily{
			Name: base,
			Type: "summary",
			Help: "registry histogram " + n,
			Samples: []PromSample{
				{Labels: quantile("0.5"), Value: float64(h.P50)},
				{Labels: quantile("0.99"), Value: float64(h.P99)},
				{Suffix: "_sum", Labels: labels, Value: h.Mean * float64(h.N)},
				{Suffix: "_count", Labels: labels, Value: float64(h.N)},
			},
		})
		fams = append(fams, PromFamily{
			Name:    base + "_max",
			Type:    "gauge",
			Help:    "registry histogram max " + n,
			Samples: []PromSample{{Labels: labels, Value: float64(h.Max)}},
		})
	}
	return fams
}

// sortedKeys is the deterministic iteration order of a snapshot map.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
