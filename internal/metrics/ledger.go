package metrics

import (
	"fmt"
	"reflect"
	"strings"
)

// Row is one number of a ledger struct: the struct a layer counts into
// is the only declaration of its numbers, and every view — the
// telemetry registry, /metrics, the figure tables' audits — is a walk
// of it. A number is declared beside its field:
//
//	Widgets int64 `metric:"layer/widgets counter widgets made since boot"`
//
// that is, exposition name, kind (counter or gauge), then the help
// text. A field no view reads says so: `metric:"-"`.
type Row struct {
	Field            string // Go field name
	Name, Kind, Help string // Name is empty for a field skipped on purpose
	Get              func() float64
}

// Walk returns one row per exported numeric field of the struct ptr
// points to, in declaration order, skipped fields included (views pass
// over an empty Name; audits see every field). Get reads the live field
// through its address: reflection runs here, once, and a row costs a
// pointer load from then on. An exported numeric field without a tag,
// or a tag that is not "name kind help", is a programming error and
// panics at registration.
func Walk(ptr any) []Row {
	v := reflect.ValueOf(ptr).Elem()
	t := v.Type()
	var rows []Row
	for i := 0; i < t.NumField(); i++ {
		sf, f := t.Field(i), v.Field(i)
		if !sf.IsExported() || !(f.CanInt() || f.CanFloat()) {
			continue
		}
		tag := sf.Tag.Get("metric")
		row := Row{Field: sf.Name}
		if tag != "-" {
			parts := strings.SplitN(tag, " ", 3)
			if len(parts) != 3 || (parts[1] != "counter" && parts[1] != "gauge") || parts[2] == "" {
				panic(fmt.Sprintf("metrics: %s.%s: tag %q is not \"name counter|gauge help\" or \"-\"", t, sf.Name, tag))
			}
			row.Name, row.Kind, row.Help = parts[0], parts[1], parts[2]
		}
		switch p := f.Addr().Interface().(type) {
		case *int64:
			row.Get = func() float64 { return float64(*p) }
		case *int:
			row.Get = func() float64 { return float64(*p) }
		case *float64:
			row.Get = func() float64 { return *p }
		default:
			panic(fmt.Sprintf("metrics: %s.%s: a ledger field is int64, int or float64, not %s", t, sf.Name, sf.Type))
		}
		rows = append(rows, row)
	}
	return rows
}
