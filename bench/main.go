// Command bench is the repository's benchmark: six named workloads on
// two clocks (simulated and wall), with a per-layer decomposition.
//
//	go run ./bench                                   # everything, human-readable
//	go run ./bench -workload read-aged               # one workload
//	go run ./bench -workload read-aged -trace 1      # its per-layer numbers
//	go run ./bench -compare old.json new.json        # gate one result set against another
//
// See bench/README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	outDir   string
	compare  bool

	// Child-process flags: the harness re-executes itself once per
	// repetition.
	child bool
	mode  string
}

func parseFlags(args []string, stderr io.Writer) (config, []string, error) {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "run only this workload (default: all six)")
	fs.Uint64Var(&c.seed, "seed", 1, "feeds the device seed and the load generator")
	fs.Float64Var(&c.seconds, "seconds", runSeconds, "wall seconds measured per workload, split across repetitions")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&c.outDir, "out", "bench/out", "directory for result.json and trace-<workload>.json")
	fs.BoolVar(&c.compare, "compare", false, "compare two result files: -compare old.json new.json")
	fs.BoolVar(&c.child, "child", false, "internal: run one repetition in this process")
	fs.StringVar(&c.mode, "mode", modeTimed, "internal: repetition mode")
	if err := fs.Parse(args); err != nil {
		return c, nil, err
	}
	if c.seconds <= 0 {
		return c, nil, fmt.Errorf("-seconds must be positive")
	}
	if c.trace != 0 && c.trace != 1 {
		return c, nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if c.workload != "" {
		if _, ok := runners[c.workload]; !ok {
			return c, nil, fmt.Errorf("unknown workload %q", c.workload)
		}
	}
	return c, fs.Args(), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	c, rest, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case c.compare:
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		worse, err := compareFiles(stdout, rest[0], rest[1])
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case c.child:
		r, err := runChild(c)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ok, err := orchestrate(c, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runChild executes one repetition of one workload in this process.
func runChild(c config) (*rep, error) {
	ctx := &runCtx{mode: c.mode, seed: c.seed, size: c.seconds, spans: newSpanLog()}
	r, err := runners[c.workload](ctx)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", c.workload, c.mode, err)
	}
	r.Workload, r.Mode, r.Seed = c.workload, c.mode, c.seed
	if r.Metrics["peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return nil, err
	}
	r.Metrics["fail_frac"] = ratio(float64(r.Failed), float64(r.Attempted))
	if c.mode == modeTraced {
		if err := ctx.spans.write(c.outDir, c.workload); err != nil {
			return nil, err
		}
	}
	return r, nil
}
