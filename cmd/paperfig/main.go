// Command paperfig regenerates the data figures of "Exploiting Process
// Similarity of 3D Flash Memory for High Performance SSDs" (MICRO-52,
// 2019) on the simulated chips and SSD and prints the same rows/series
// the paper reports.
//
// Usage:
//
//	paperfig [-seed N] all          # every figure, paper order
//	paperfig [-seed N] fig17a fig18 # specific figures
//	paperfig -list                  # available figure ids
//	paperfig -seed 3 -blocks 16 charize-csv > sweep.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cubeftl"
)

func main() {
	dev := cubeftl.Options{Seed: 1} // the root seed of every figure's device
	dev.BindFlags(flag.CommandLine, "seed")
	list := flag.Bool("list", false, "list available figure ids and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	blocks := flag.Int("blocks", 8, "blocks swept by "+charizeID)
	ids := append(cubeftl.FigureIDs(), charizeID) // "all" is the tables: the CSV sweep only by name
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paperfig [-seed N] all|<figure-id>...\navailable: %s\n", strings.Join(ids, " "))
	}
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(ids, "\n"))
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = cubeftl.FigureIDs()
	}
	for _, id := range args {
		start := time.Now()
		var err error
		switch {
		case id == charizeID:
			err = charizeCSV(os.Stdout, dev.Seed, *blocks)
		case *asJSON:
			err = cubeftl.ReproduceFigureJSON(id, dev.Seed, os.Stdout)
		default:
			err = cubeftl.ReproduceFigure(id, dev.Seed, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !*asJSON && id != charizeID {
			fmt.Printf("  [%s regenerated in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}
