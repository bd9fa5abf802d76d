// Command paperfig regenerates the data figures of "Exploiting Process
// Similarity of 3D Flash Memory for High Performance SSDs" (MICRO-52,
// 2019) on the simulated chips and SSD and prints the same rows/series
// the paper reports.
//
// Usage:
//
//	paperfig [-seed N] all          # every figure, sorted by id
//	paperfig [-seed N] fig17a fig18 # specific figures
//	paperfig -list                  # available figure ids
//	paperfig -seed 3 -blocks 16 charize-csv > sweep.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"cubeftl"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values. Every id is
// checked before any figure runs: a typo costs no minutes of output.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dev := cubeftl.Options{Seed: 1} // the root seed of every figure's device
	dev.BindFlags(fs, "seed")
	list := fs.Bool("list", false, "list available figure ids and exit")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	blocks := fs.Int("blocks", 8, "blocks swept by "+charizeID)
	ids := append(cubeftl.FigureIDs(), charizeID) // "all" is the tables: the CSV sweep only by name
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paperfig [-seed N] all|<figure-id>...\navailable: %s\n", strings.Join(ids, " "))
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(ids, "\n"))
		return 0
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return 2
	}
	if len(args) == 1 && args[0] == "all" {
		args = cubeftl.FigureIDs()
	}
	for _, id := range args {
		if !slices.Contains(ids, id) {
			fmt.Fprintf(stderr, "paperfig: unknown figure %q (have %v)\n", id, ids)
			return 1
		}
	}
	for _, id := range args {
		start := time.Now()
		var err error
		switch {
		case id == charizeID:
			err = charizeCSV(stdout, dev.Seed, *blocks)
		case *asJSON:
			err = cubeftl.ReproduceFigureJSON(id, dev.Seed, stdout)
		default:
			err = cubeftl.ReproduceFigure(id, dev.Seed, stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !*asJSON && id != charizeID {
			fmt.Fprintf(stdout, "  [%s regenerated in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}
