package cubeftl

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	benchFunc    = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	benchRef     = regexp.MustCompile(`(Benchmark\w*)(\*|/[-\w]+)?`)
	paperfigWord = regexp.MustCompile(`paperfig\s+([-\w]+)`)
)

// TestDocsNameRealFiguresAndBenchmarks holds README.md, EXPERIMENTS.md
// and DESIGN.md to the code: every `paperfig <word>` is a registered
// figure id, "all", "charize-csv" or a flag, and every Benchmark<Name>
// is a func in some _test.go file of the tree (a trailing * makes it a
// prefix) or BenchmarkFigure/<registered id>.
func TestDocsNameRealFiguresAndBenchmarks(t *testing.T) {
	var benches []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			benches = append(benches, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range paperfigWord.FindAllSubmatch(text, -1) {
			w := string(m[1])
			if w != "all" && w != "charize-csv" && !strings.HasPrefix(w, "-") && figures[w] == nil {
				t.Errorf("%s: %q: no figure %q", doc, m[0], w)
			}
		}
		for _, m := range benchRef.FindAllSubmatch(text, -1) {
			name, suffix := string(m[1]), string(m[2])
			var ok bool
			switch {
			case name == "BenchmarkFigure" && strings.HasPrefix(suffix, "/"):
				ok = figures[suffix[1:]] != nil
			case suffix == "*":
				ok = slices.ContainsFunc(benches, func(b string) bool { return strings.HasPrefix(b, name) })
			default:
				ok = slices.Contains(benches, name)
			}
			if !ok {
				t.Errorf("%s: %q names no benchmark", doc, m[0])
			}
		}
	}
}
