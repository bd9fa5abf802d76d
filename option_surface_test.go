package cubeftl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The option surface: every exported field of every exported struct
// named *Config, *Options, *Opts or Spec in the module's non-test
// source, one "importpath.Struct.Field type" line each, against
// testdata/option_surface.golden. A knob added or retired is a one-line
// diff of that file; a change on purpose rewrites it with the list this
// test prints.
func TestOptionSurface(t *testing.T) {
	var got []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "cubeftl"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !isOptionStruct(ts.Name.Name) {
					continue
				}
				for _, field := range st.Fields.List {
					typ := types.ExprString(field.Type)
					if len(field.Names) == 0 { // embedded: the field is named by its type
						name := strings.TrimPrefix(typ[strings.LastIndex(typ, ".")+1:], "*")
						if ast.IsExported(name) {
							got = append(got, pkg+"."+ts.Name.Name+"."+name+" "+typ)
						}
					}
					for _, n := range field.Names {
						if n.IsExported() {
							got = append(got, pkg+"."+ts.Name.Name+"."+n.Name+" "+typ)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)

	golden, err := os.ReadFile("testdata/option_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for _, l := range got {
		if !slices.Contains(want, l) {
			t.Errorf("new option field: %s", l)
		}
	}
	for _, l := range want {
		if !slices.Contains(got, l) {
			t.Errorf("option field gone: %s", l)
		}
	}
	if t.Failed() {
		t.Logf("the surface now reads:\n%s", strings.Join(got, "\n"))
	}
}

func isOptionStruct(name string) bool {
	return name == "Spec" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Opts")
}
