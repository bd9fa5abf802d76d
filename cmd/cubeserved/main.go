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
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cubeftl"
	"cubeftl/internal/obs"
	"cubeftl/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7443", "listen address")
		ftlKind  = flag.String("ftl", cubeftl.FTLCube, "FTL policy: page|vert|isp|cube|cube-")
		channels = flag.Int("channels", 4, "flash channels")
		dies     = flag.Int("dies", 2, "dies per channel")
		blocks   = flag.Int("blocks", 64, "blocks per chip")
		seed     = flag.Uint64("seed", 1, "device RNG seed")
		recovery = flag.Bool("recovery", true, "enable crash consistency (durable acks, checkpoints, remount)")
		prefill  = flag.Int64("prefill", 0, "sequentially prefill this many logical pages before serving")
		arb      = flag.String("arb", cubeftl.ArbWRR, "queue arbiter: rr|wrr|prio")
		width    = flag.Int("width", 0, "dispatch width across queues (0 = sum of depths)")
		slo      = flag.Bool("slo", false, "enable the online SLO controller")
		sloIvl   = flag.Duration("slo-interval", 2*time.Millisecond, "simulated time between SLO decisions")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, /readyz on this address (e.g. 127.0.0.1:9090)")
		eventsOut   = flag.String("events-out", "", "append the structured JSONL event log (SLO decisions, chaos ops, recovery verdicts) to this file")
		spanSample  = flag.Int("span-sample", 0, "trace 1 in N device operations (0 = default 16; 1 = every op)")
	)
	var profile obs.ProfileConfig
	profile.RegisterFlags(flag.CommandLine)
	var tenants []server.TenantDef
	flag.Func("tenant", "tenant spec: name[,weight=N][,depth=N][,prio=N][,rate=IOPS][,slo=DUR] (repeatable)",
		func(spec string) error {
			td, err := parseTenant(spec)
			if err != nil {
				return err
			}
			tenants = append(tenants, td)
			return nil
		})
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

	if len(tenants) == 0 {
		tenants = []server.TenantDef{
			{Name: "lat", Weight: 8, SLOReadP99: 2 * time.Millisecond},
			{Name: "bulk", Weight: 1},
		}
	}

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	if err := profile.Start(); err != nil {
		logger.Fatalf("cubeserved: %v", err)
	}
	defer func() {
		if err := profile.Stop(); err != nil {
			logger.Printf("cubeserved: profiling: %v", err)
		}
	}()
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			logger.Fatalf("cubeserved: %v", err)
		}
		eventsFile = f
		defer eventsFile.Close()
	}
	var eventsW io.Writer
	if eventsFile != nil {
		eventsW = eventsFile
	}
	srv, err := server.New(server.Config{
		Device: cubeftl.Options{
			FTL:            *ftlKind,
			Channels:       *channels,
			DiesPerChannel: *dies,
			BlocksPerChip:  *blocks,
			Seed:           *seed,
			Recovery:       *recovery,
		},
		Tenants:       tenants,
		Arbiter:       *arb,
		DispatchWidth: *width,
		SLO:           server.SLOConfig{Enabled: *slo, Interval: *sloIvl},
		PrefillPages:  *prefill,
		Logf:          logger.Printf,
		MetricsAddr:   *metricsAddr,
		EventsOut:     eventsW,
		SpanSample:    *spanSample,
	})
	if err != nil {
		logger.Fatalf("cubeserved: %v", err)
	}
	if err := srv.Start(*addr); err != nil {
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

// parseTenant parses "name[,k=v]...".
func parseTenant(spec string) (server.TenantDef, error) {
	parts := strings.Split(spec, ",")
	if parts[0] == "" {
		return server.TenantDef{}, fmt.Errorf("tenant spec %q: empty name", spec)
	}
	td := server.TenantDef{Name: parts[0], Weight: 1}
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return td, fmt.Errorf("tenant spec %q: bad field %q", spec, kv)
		}
		var err error
		switch k {
		case "weight":
			td.Weight, err = strconv.Atoi(v)
		case "depth":
			td.Depth, err = strconv.Atoi(v)
		case "prio":
			td.Priority, err = strconv.Atoi(v)
		case "rate":
			td.RateIOPS, err = strconv.ParseFloat(v, 64)
		case "slo":
			td.SLOReadP99, err = time.ParseDuration(v)
		default:
			err = fmt.Errorf("unknown field %q", k)
		}
		if err != nil {
			return td, fmt.Errorf("tenant spec %q: %v", spec, err)
		}
	}
	return td, nil
}
