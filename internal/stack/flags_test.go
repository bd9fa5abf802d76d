package stack

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// boundByBinaries returns every flag name a non-test file under cmd/
// passes to BindFlags, read from the source: package main cannot be
// imported.
func boundByBinaries(t *testing.T) map[string][]string {
	t.Helper()
	files, err := filepath.Glob("../../cmd/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no binaries found: %v", err)
	}
	bound := map[string][]string{}
	for _, file := range files {
		if matched, _ := filepath.Match("*_test.go", filepath.Base(file)); matched {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "BindFlags" {
				return true
			}
			for _, arg := range call.Args[1:] {
				lit, ok := arg.(*ast.BasicLit)
				if !ok {
					t.Errorf("%s: BindFlags takes its names as literals", file)
					continue
				}
				name, _ := strconv.Unquote(lit.Value)
				bound[name] = append(bound[name], filepath.Base(filepath.Dir(file)))
			}
			return true
		})
	}
	return bound
}

// The table is the one declaration: every row names a real Spec field
// of a kind BindFlags can bind, no flag and no field appears twice, and
// no row is dead — some binary exposes it — while the fields that never
// had a flag still have none.
func TestDeviceFlagTable(t *testing.T) {
	bound := boundByBinaries(t)
	spec := reflect.TypeOf(Spec{})
	names, fields := map[string]bool{}, map[string]bool{}
	for _, f := range deviceFlags {
		sf, ok := spec.FieldByName(f.field)
		if !ok {
			t.Errorf("-%s names Spec.%s, which does not exist", f.name, f.field)
			continue
		}
		switch reflect.New(sf.Type).Interface().(type) {
		case *string, *int, *uint64, *float64, *bool, *time.Duration:
		default:
			t.Errorf("-%s: BindFlags cannot bind a %s", f.name, sf.Type)
		}
		if names[f.name] || fields[f.field] {
			t.Errorf("-%s / Spec.%s declared twice", f.name, f.field)
		}
		names[f.name], fields[f.field] = true, true
		if f.usage == "" {
			t.Errorf("-%s has no usage text", f.name)
		}
		if len(bound[f.name]) == 0 {
			t.Errorf("-%s is in the table but no binary under cmd/ binds it", f.name)
		}
	}
	for name, by := range bound {
		if !names[name] {
			t.Errorf("%v bind -%s, which the table does not declare", by, name)
		}
	}
	for _, field := range []string{"Cube", "WriteBufferPages", "SuspendOps", "VerifyData"} {
		if fields[field] {
			t.Errorf("Spec.%s gained a flag; it had none in any binary", field)
		}
	}
	if got, want := len(fields)+4, spec.NumField(); got != want {
		t.Errorf("%d Spec fields are neither in the table nor on the no-flag list", want-got)
	}
}

// A bound flag defaults to the Spec's value at bind time, writes the
// Spec's field, and shows the table's usage text.
func TestBindFlags(t *testing.T) {
	s := Spec{FTL: "cube", Channels: 4, Seed: 1, Recovery: true, CkptInterval: time.Millisecond}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.BindFlags(fs, "ftl", "channels", "seed", "retention", "recovery", "ckpt-interval")
	if f := fs.Lookup("channels"); f == nil || f.DefValue != "4" || f.Usage != deviceFlags[1].usage {
		t.Errorf("-channels bound as %+v", f)
	}
	if fs.Lookup("dies") != nil {
		t.Error("-dies bound without being named")
	}
	if err := fs.Parse([]string{"-ftl", "page", "-seed", "7", "-retention", "1.5", "-recovery=false", "-ckpt-interval", "-1ms"}); err != nil {
		t.Fatal(err)
	}
	want := Spec{FTL: "page", Channels: 4, Seed: 7, RetentionMonths: 1.5, CkptInterval: -time.Millisecond}
	if s != want {
		t.Errorf("parsed into %+v, want %+v", s, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("BindFlags accepted a flag the table does not declare")
		}
	}()
	s.BindFlags(flag.NewFlagSet("t", flag.ContinueOnError), "blocks", "planes")
}
