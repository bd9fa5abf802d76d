// Package obs holds process-level observability helpers shared by the
// command-line binaries: the -cpuprofile/-memprofile/-pprof-addr
// profiling trio wired identically into cubesim, cubeserved, and
// cubefleet, and the -stats-out/-stats-interval pair of cubesim and
// cubefleet (DESIGN.md §16).
package obs

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileConfig is the shared Go-profiling flag set. Register the
// flags, Start after flag.Parse, and Stop (usually deferred) at exit.
type ProfileConfig struct {
	CPUProfile string
	MemProfile string
	PprofAddr  string

	cpuFile *os.File
}

// RegisterFlags installs the three profiling flags on fs
// (flag.CommandLine for a main).
func (p *ProfileConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile of this process to the file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile at exit to the file")
	fs.StringVar(&p.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Start begins CPU profiling and the pprof HTTP listener per the
// flags. A failed pprof listener is reported on stderr, not fatal —
// profiling must never take the workload down with it.
func (p *ProfileConfig) Start() error {
	if p.PprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(p.PprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", p.PprofAddr)
	}
	if p.CPUProfile == "" {
		return nil
	}
	f, err := os.Create(p.CPUProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// Stop flushes the CPU profile and writes the heap profile. Safe to
// call without a prior successful Start.
func (p *ProfileConfig) Stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
		p.cpuFile = nil
	}
	if p.MemProfile != "" {
		f, err := os.Create(p.MemProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile is stable
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
