// Command cubeserved serves a simulated process-similarity SSD as a
// live TCP block service: per-tenant queue pairs with online SLO
// enforcement, durable write acks, idempotent retries, and the full
// crash-recovery path (checkpoint on SIGTERM, Mount + verify on boot).
//
//	cubeserved -addr 127.0.0.1:7443 \
//	    -tenant lat,weight=8,slo=2ms -tenant bulk,weight=1 -slo
//
// SIGINT/SIGTERM shuts down gracefully: clients get a GoingDown
// notice, in-flight I/O drains, the journal flushes, and a final
// checkpoint is written so the next boot mounts instantly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cubeftl"
	"cubeftl/internal/host"
	"cubeftl/internal/obs"
	"cubeftl/internal/server"
)

// config is everything cubeserved's command line sets.
type config struct {
	addr      string
	srv       server.Config
	eventsOut string
	profile   obs.ProfileConfig
}

// bind declares cubeserved's flags on fs.
func (c *config) bind(fs *flag.FlagSet) {
	fs.StringVar(&c.addr, "addr", "127.0.0.1:7443", "listen address")
	c.srv.Device = cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 4, DiesPerChannel: 2, BlocksPerChip: 64, Seed: 1, Recovery: true}
	c.srv.Device.BindFlags(fs, "ftl", "channels", "dies", "blocks", "seed", "recovery")
	fs.Int64Var(&c.srv.PrefillPages, "prefill", 0, "sequentially prefill this many logical pages before serving")
	fs.StringVar(&c.srv.Arbiter, "arb", cubeftl.ArbWRR, "queue arbiter: rr|wrr|prio")
	fs.IntVar(&c.srv.DispatchWidth, "width", 0, "dispatch width across queues (0 = sum of depths)")
	fs.BoolVar(&c.srv.SLO.Enabled, "slo", false, "enable the online SLO controller")
	fs.DurationVar(&c.srv.SLO.Interval, "slo-interval", 2*time.Millisecond, "simulated time between SLO decisions")

	fs.StringVar(&c.srv.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /readyz on this address (e.g. 127.0.0.1:9090)")
	fs.StringVar(&c.eventsOut, "events-out", "", "append the structured JSONL event log (SLO decisions, chaos ops, recovery verdicts) to this file")
	fs.IntVar(&c.srv.SpanSample, "span-sample", 0, "trace 1 in N device operations (0 = default 16; 1 = every op)")
	c.profile.RegisterFlags(fs)
	fs.Func("tenant", "tenant spec: name[,weight=N][,depth=N][,prio=N][,rate=IOPS][,slo=DUR] (repeatable)",
		func(spec string) error {
			var slo time.Duration
			q, err := host.ParseQueue(spec, map[string]func(string) error{
				"slo": func(v string) (err error) {
					if slo, err = time.ParseDuration(v); err == nil && slo < 0 {
						err = fmt.Errorf("negative duration %v", slo)
					}
					return err
				},
			})
			if err != nil {
				return err
			}
			c.srv.Tenants = append(c.srv.Tenants, server.TenantDef{
				Name: q.Name, Depth: q.Depth, Weight: q.Weight, Priority: q.Priority,
				RateIOPS: q.RateIOPS, SLOReadP99: slo,
			})
			return nil
		})
}

func main() {
	var c config
	c.bind(flag.CommandLine)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n", os.Args[0])
		fmt.Fprintln(w, "  Serves a simulated SSD as a TCP block service. Requests are coalesced the way")
		fmt.Fprintf(w, "  NVMe doorbells are: after one arrives the core waits at most %v of wall clock\n", server.DefaultBatchWindow)
		fmt.Fprintln(w, "  for more to join the batch before it advances the device; the wait ends early once")
		fmt.Fprintln(w, "  every session has a command in flight. /metrics reports both outcomes")
		fmt.Fprintln(w, "  (cube_server_window_all_in_total, cube_server_window_timeouts_total).")
		flag.PrintDefaults()
	}
	flag.Parse()

	if len(c.srv.Tenants) == 0 {
		c.srv.Tenants = []server.TenantDef{
			{Name: "lat", Weight: 8, SLOReadP99: 2 * time.Millisecond},
			{Name: "bulk", Weight: 1},
		}
	}

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	c.srv.Logf = logger.Printf
	if err := c.profile.Start(); err != nil {
		logger.Fatalf("cubeserved: %v", err)
	}
	defer func() {
		if err := c.profile.Stop(); err != nil {
			logger.Printf("cubeserved: profiling: %v", err)
		}
	}()
	if c.eventsOut != "" {
		f, err := os.Create(c.eventsOut)
		if err != nil {
			logger.Fatalf("cubeserved: %v", err)
		}
		defer f.Close()
		c.srv.EventsOut = f
	}
	srv, err := server.New(c.srv)
	if err != nil {
		logger.Fatalf("cubeserved: %v", err)
	}
	if err := srv.Start(c.addr); err != nil {
		logger.Fatalf("cubeserved: %v", err)
	}

	// Graceful shutdown: first signal drains + checkpoints; a second
	// forces exit.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	logger.Printf("cubeserved: %v — draining and checkpointing (signal again to force)", sig)
	go func() {
		<-sigc
		logger.Printf("cubeserved: forced exit")
		os.Exit(1)
	}()
	srv.Close()

	st := srv.FinalStats()
	logger.Printf("cubeserved: done — %d conns, %d sessions, %d writes (%d dup-acked), %d reads, %d power cuts / %d recoveries",
		st.Conns, st.Sessions, st.Writes, st.Duplicates, st.Reads, st.PowerCuts, st.Recoveries)
}
