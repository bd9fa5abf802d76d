package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cubeftl"
	"cubeftl/internal/cache"
	"cubeftl/internal/fleet"
	"cubeftl/internal/server"
	"cubeftl/internal/telemetry"
	"cubeftl/internal/workload"
)

// runCtx is what one repetition is asked to do.
type runCtx struct {
	mode string
	seed uint64
	// size is the wall seconds the timed section is sized for on the
	// reference box. Simulated workloads turn it into a fixed request
	// count, so their simulated statistics repeat exactly for one
	// (seed, size); served-loopback runs for exactly this long.
	size  float64
	spans *spanLog
}

func (c *runCtx) traced() bool { return c.mode == modeTraced }

// runners maps a workload name to the code that sets it up, drives it
// and audits it. Each returns the repetition's report.
var runners = map[string]func(*runCtx) (*rep, error){
	"mixed-fresh": deviceWorkload{
		opts:    cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 128},
		profile: "Mixed", reqPerSec: 145_000,
	}.run,
	"read-aged": deviceWorkload{
		opts: cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 128,
			PECycles: 2000, RetentionMonths: 12, RetryMode: "ort"},
		profile: "YCSB-C", reqPerSec: 225_000,
	}.run,
	"oltp-burst": deviceWorkload{
		opts:    cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 128},
		profile: "OLTP", reqPerSec: 190_000,
	}.run,
	"lifetime-3y": deviceWorkload{
		opts: cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 64,
			RetryMode: "ort-pr", Refresh: true, WearLevel: true},
		profile: "Rocks", reqPerSec: 76_000, ageMonths: 36,
	}.run,
	"served-loopback": runServed,
	"fleet-replay":    runFleet,
}

const (
	queueDepth = 24
	// prefillFrac is 0.8 rather than the issue's 0.6 because repetitions
	// are 2 s rather than 4 to 6 s: at 0.6 garbage collection starts only
	// as a 2 s run ends (WAF 1.00 on mixed-fresh), at 0.8 it runs
	// throughout (WAF 1.1 to 1.35, the regime the issue sized for).
	prefillFrac = 0.8
)

// deviceWorkload is a named stream on one simulated SSD.
type deviceWorkload struct {
	opts      cubeftl.Options
	profile   string
	reqPerSec int     // requests that take about one wall second here
	ageMonths float64 // lifetime fast-forward between prefill and run
}

func (w deviceWorkload) run(c *runCtx) (*rep, error) {
	r := &rep{Metrics: map[string]float64{}}
	opts := w.opts
	opts.Seed = c.seed
	requests := int(math.Round(c.size * float64(w.reqPerSec)))
	switch c.mode {
	case modeVerify:
		opts.VerifyData = true
		requests /= 10
	case modeTwin:
		opts.FTL = cubeftl.FTLPage
	}
	requests = max(requests, 1)

	var dev *cubeftl.SSD
	var err error
	setup := c.spans.do(0, "setup", func(id int) {
		c.spans.do(id, "build", func(int) { dev, err = cubeftl.New(opts) })
		if err != nil {
			return
		}
		c.spans.do(id, "prefill", func(int) {
			dev.Prefill(int64(prefillFrac * float64(dev.LogicalPages())))
			dev.ResetStats()
		})
		if w.ageMonths > 0 {
			// No ResetStats after the jump: the WAF window covers the
			// refresh burst the jump triggers plus the run.
			c.spans.do(id, "age", func(int) { dev.AgeMonths(w.ageMonths) })
		}
		if c.traced() {
			dev.EnableTelemetry(cubeftl.TelemetryConfig{Trace: true, SpanSample: 16})
		}
	})
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_wall_s"] = setup.Seconds()

	var st cubeftl.RunStats
	var sec *section
	c.spans.do(0, "run", func(int) {
		if sec, err = startSection(c); err != nil {
			return
		}
		if st, err = dev.RunWorkload(w.profile, requests, queueDepth); err != nil {
			return
		}
		err = sec.stop(r, st.Requests)
	})
	if err != nil {
		return nil, err
	}

	c.spans.do(0, "audit", func(int) {
		cube, waf := dev.Cube(), dev.WAF()
		r.Attempted = int64(requests)
		r.Failed = int64(requests) - st.Requests + st.WriteRejects
		r.Digest = digest(st, cube, waf)
		if st.DataMismatches != 0 {
			r.failf("%d data mismatches", st.DataMismatches)
		}
		if st.Requests != int64(requests) {
			r.failf("completed %d of %d requests", st.Requests, requests)
		}
		w.simMetrics(r.Metrics, st, cube, waf)
		if c.traced() {
			w.tracedMetrics(r.Metrics, dev, st)
		}
	})
	return r, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simMetrics reads the simulated-clock results and the counts the
// program already exposes. All repeat exactly for one seed.
func (w deviceWorkload) simMetrics(m map[string]float64, st cubeftl.RunStats, cube cubeftl.CubeStats, waf cubeftl.WAFStats) {
	m["sim_iops"] = st.IOPS
	m["sim_read_p50_us"] = us(st.ReadP50)
	m["sim_read_p99_us"] = us(st.ReadP99)
	m["sim_write_p99_us"] = us(st.WriteP99)
	m["sim_tprog_mean_us"] = us(st.MeanTPROG)
	m["waf"] = waf.Factor

	kreq := float64(st.Requests) / 1000
	programmed := float64(waf.HostBytes + waf.GCBytes + waf.RefreshBytes + waf.WLBytes)
	m["ftl.gc_runs_per_kreq"] = ratio(float64(st.GCRuns), kreq)
	m["ftl.gc_page_moves_per_kreq"] = ratio(float64(waf.GCBytes)/pageBytes, kreq)
	m["ftl.waf_gc_share"] = ratio(float64(waf.GCBytes), programmed)
	m["ftl.waf_refresh_share"] = ratio(float64(waf.RefreshBytes), programmed)
	m["ftl.waf_wl_share"] = ratio(float64(waf.WLBytes), programmed)
	m["ftl.reprograms"] = float64(st.Reprograms)
	m["core.follower_frac"] = ratio(float64(cube.FollowerPrograms), float64(cube.LeaderPrograms+cube.FollowerPrograms))
	m["core.ort_hit_frac"] = ratio(float64(cube.ORTHits), float64(cube.ORTHits+cube.ORTMisses))
	m["core.retry_table_hit_frac"] = ratio(float64(cube.RetryHits), float64(cube.RetryHits+cube.RetryStale+cube.RetryMisses))
	m["core.safety_rejects"] = float64(cube.SafetyRejects)
}

const pageBytes = 16 * 1024

// tracedMetrics reads what only the telemetry registry and stage
// attribution expose: page-level read counts and where simulated time
// went. The run is bit-identical with telemetry on, so these describe
// the timed repetitions too.
func (w deviceWorkload) tracedMetrics(m map[string]float64, dev *cubeftl.SSD, st cubeftl.RunStats) {
	hub := dev.Telemetry()
	snap := hub.Registry().Snapshot()
	pageReads := float64(snap.Hists["ftl/read_ns"].N)
	m["nand.retries_per_read"] = ratio(float64(st.ReadRetries), pageReads)
	m["ftl.buffer_hit_frac"] = ratio(float64(st.BufferHits), pageReads)

	stages := hub.Stages()
	if d := stages.Scope("tenant/" + w.profile + "/read"); d != nil {
		s := d.MeanShare()
		m["host.read_queue_share"] = s[telemetry.StageQueue]
		m["ssd.read_plane_wait_share"] = s[telemetry.StagePlaneWait]
		m["nand.read_cell_share"] = s[telemetry.StageNAND]
		m["nand.read_retry_share"] = s[telemetry.StageRetry]
		m["ssd.read_bus_share"] = s[telemetry.StageBusWait] + s[telemetry.StageBusXfer]
		m["other.read_share"] = s[telemetry.StageAdmit] + s[telemetry.StageBuffer] + s[telemetry.StageOther]
	}
	if d := stages.Scope("tenant/" + w.profile + "/write"); d != nil {
		s := d.MeanShare()
		m["ftl.write_admit_share"] = s[telemetry.StageAdmit]
		m["ssd.write_plane_wait_share"] = s[telemetry.StagePlaneWait]
		m["nand.write_cell_share"] = s[telemetry.StageNAND]
		m["other.write_share"] = 1 - s[telemetry.StageAdmit] - s[telemetry.StagePlaneWait] - s[telemetry.StageNAND]
	}
}

// --- served-loopback ---

const servedPrefill = 100_000

// lcg is the load generator's own stream: the program under test only
// ever sees the addresses it produces.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 33)
}

type clientLog struct {
	readRTT, writeRTT []float64 // wall µs, client-observed
	simRead           []float64 // simulated µs, server-reported
	written           map[int64]struct{}
	attempted, failed int64
	spans             *spanLog
}

func runServed(c *runCtx) (*rep, error) {
	r := &rep{Metrics: map[string]float64{}}
	var srv *server.Server
	clients := make([]*server.Client, 2)
	tenants := []string{"a", "b"}
	var simStart time.Duration
	var err error
	setup := c.spans.do(0, "setup", func(id int) {
		c.spans.do(id, "build+prefill", func(int) {
			// cubeserved's shipped defaults, on purpose: with two
			// connections the throughput users get is set by the default
			// batch window, and the benchmark should say so.
			srv, err = server.New(server.Config{
				Device: cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 4, DiesPerChannel: 2,
					BlocksPerChip: 64, Seed: c.seed, Recovery: true},
				Tenants:      []server.TenantDef{{Name: tenants[0]}, {Name: tenants[1]}},
				Arbiter:      cubeftl.ArbWRR,
				PrefillPages: servedPrefill,
			})
		})
		if err != nil {
			return
		}
		// Nothing else touches the device until Start.
		simStart = srv.Device().Now()
		c.spans.do(id, "start", func(int) {
			if err = srv.Start("127.0.0.1:0"); err != nil {
				return
			}
			for i := range clients {
				clients[i], err = server.Dial(server.ClientConfig{Addr: srv.Addr().String(), Tenant: tenants[i]})
				if err != nil {
					return
				}
			}
		})
	})
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return nil, err
	}
	defer srv.Close()
	r.Metrics["setup_wall_s"] = setup.Seconds()

	logs := make([]*clientLog, len(clients))
	var sec *section
	c.spans.do(0, "run", func(runID int) {
		if sec, err = startSection(c); err != nil {
			return
		}
		deadline := time.Now().Add(time.Duration(c.size * float64(time.Second)))
		var wg sync.WaitGroup
		for i, cl := range clients {
			logs[i] = &clientLog{written: map[int64]struct{}{}, spans: c.spans.fork()}
			wg.Add(1)
			go func(cl *server.Client, l *clientLog, g lcg) {
				defer wg.Done()
				l.drive(cl, &g, deadline, runID, c.traced())
			}(cl, logs[i], lcg(c.seed*2+uint64(i)))
		}
		wg.Wait()
		var done int64
		for _, l := range logs {
			done += l.attempted - l.failed
		}
		err = sec.stop(r, done)
	})
	if err != nil {
		return nil, err
	}

	c.spans.do(0, "audit", func(int) {
		var all clientLog
		for _, l := range logs {
			all.readRTT = append(all.readRTT, l.readRTT...)
			all.writeRTT = append(all.writeRTT, l.writeRTT...)
			all.simRead = append(all.simRead, l.simRead...)
			r.Attempted += l.attempted
			r.Failed += l.failed
			c.spans.merge(l.spans)
		}
		// Every acked write must be visible through the protocol, then
		// survive a power cut and a verified remount.
		var wg sync.WaitGroup
		unmapped := make([]int, len(clients))
		for i, cl := range clients {
			wg.Add(1)
			go func(i int, cl *server.Client) {
				defer wg.Done()
				for lpn := range logs[i].written {
					if ok, err := cl.Stat(lpn); err != nil || !ok {
						unmapped[i]++
					}
				}
			}(i, cl)
		}
		wg.Wait()
		var retries int64
		for i, cl := range clients {
			if unmapped[i] > 0 {
				r.failf("client %d: %d acked writes do not stat as mapped", i, unmapped[i])
			}
			retries += cl.Stats.Retries
			cl.Close()
		}
		rpt, rerr := srv.Restart()
		if rerr != nil || !rpt.Verified {
			r.failf("restart with verify: verified=%v err=%v", rpt.Verified, rerr)
		}
		sst := srv.Stats()
		// The power-cut event carries the device clock at the cut: the
		// only reading of it that needs no access to the live device.
		for _, ev := range srv.Events() {
			if ev.Type == telemetry.EvPowerCut {
				r.Metrics["sim_iops"] = ratio(float64(r.Requests), (time.Duration(ev.SimNs) - simStart).Seconds())
			}
		}

		rtt := append(append([]float64(nil), all.readRTT...), all.writeRTT...)
		for _, s := range [][]float64{rtt, all.readRTT, all.writeRTT, all.simRead} {
			sort.Float64s(s)
		}
		m := r.Metrics
		m["wall_rtt_p50_us"] = percentile(rtt, 50)
		m["wall_rtt_p99_us"] = percentile(rtt, 99)
		m["wall_rtt_samples"] = float64(len(rtt))
		m["wall_rtt_top_pct"] = resolvablePercentile(len(rtt))
		m["wall_rtt_top_us"] = percentile(rtt, resolvablePercentile(len(rtt)))
		m["server.read_rtt_p50_us"] = percentile(all.readRTT, 50)
		m["server.write_rtt_p50_us"] = percentile(all.writeRTT, 50)
		m["server.write_rtt_p99_us"] = percentile(all.writeRTT, 99)
		m["server.client_retries"] = float64(retries)
		m["server.dup_acks"] = float64(sst.Duplicates)
		m["server.rejects"] = float64(sst.Rejects + sst.Unavailables)
		// The device clock as the clients saw it. Batching depends on
		// wall timing, so unlike the simulated workloads these do not
		// repeat exactly.
		m["sim_read_p50_us"] = percentile(all.simRead, 50)
		m["sim_read_p99_us"] = percentile(all.simRead, 99)
	})
	return r, nil
}

// drive is one closed-loop connection: 1-page operations, half reads
// and half writes, uniform over the prefilled pages.
func (l *clientLog) drive(cl *server.Client, g *lcg, deadline time.Time, runID int, traced bool) {
	for time.Now().Before(deadline) {
		v := g.next()
		lpn := int64(v>>1) % servedPrefill
		write := v&1 == 1
		l.attempted++
		var res server.Result
		var err error
		call := func(int) {
			if write {
				res, err = cl.Write(lpn, 1)
			} else {
				res, err = cl.Read(lpn, 1)
			}
		}
		var rtt time.Duration
		if traced {
			name := "client.read"
			if write {
				name = "client.write"
			}
			rtt = l.spans.do(runID, name, call)
		} else {
			t0 := time.Now()
			call(0)
			rtt = time.Since(t0)
		}
		if err != nil {
			l.failed++
			continue
		}
		if write {
			l.writeRTT = append(l.writeRTT, us(rtt))
			l.written[lpn] = struct{}{}
		} else {
			l.readRTT = append(l.readRTT, us(rtt))
			l.simRead = append(l.simRead, us(res.Latency))
		}
	}
}

// --- fleet-replay ---

//go:embed testdata/msr_sample.csv
var msrFixture []byte

const (
	// fleetPassesPerSec is how many passes over the fixture take about
	// one wall second here.
	fleetPassesPerSec = 300
	// fleetTextPasses caps how many time-shifted copies of the fixture
	// the harness concatenates into the trace text the parser is given;
	// fleet.Config.Repeat supplies the rest inside the program.
	fleetTextPasses = 100
)

// fleetShape splits a repetition's passes over the fixture into copies
// in the trace text and repeats of that text.
func fleetShape(size float64) (textPasses, repeat int) {
	total := max(1, int(math.Round(size*fleetPassesPerSec)))
	textPasses = min(total, fleetTextPasses)
	return textPasses, max(1, int(math.Round(float64(total)/float64(textPasses))))
}

// expandMSR concatenates passes copies of an MSR-format trace, each
// shifted in time to follow the previous one, and returns the text and
// its record count.
func expandMSR(src []byte, passes int) ([]byte, int, error) {
	type rec struct {
		ticks int64
		rest  string
	}
	var recs []rec
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		comma := strings.IndexByte(line, ',')
		if comma < 0 {
			return nil, 0, fmt.Errorf("fixture line %q has no timestamp", line)
		}
		ticks, err := strconv.ParseInt(line[:comma], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("fixture timestamp: %w", err)
		}
		recs = append(recs, rec{ticks, line[comma:]})
	}
	if len(recs) < 2 {
		return nil, 0, fmt.Errorf("fixture has %d records", len(recs))
	}
	span := recs[len(recs)-1].ticks - recs[0].ticks
	stride := span + span/int64(len(recs)) + 1
	var out bytes.Buffer
	for p := 0; p < passes; p++ {
		for _, r := range recs {
			out.WriteString(strconv.FormatInt(r.ticks+int64(p)*stride, 10))
			out.WriteString(r.rest)
			out.WriteByte('\n')
		}
	}
	return out.Bytes(), len(recs) * passes, nil
}

func runFleet(c *runCtx) (*rep, error) {
	r := &rep{Metrics: map[string]float64{}}
	textPasses, repeat := fleetShape(c.size)
	text, records, err := expandMSR(msrFixture, textPasses)
	if err != nil {
		return nil, err
	}
	if c.mode == modeVerify {
		return verifyReplay(c, r, text, records)
	}

	var tr *workload.TimedTrace
	setup := c.spans.do(0, "setup", func(id int) {
		c.spans.do(id, "parse", func(int) {
			tr, err = workload.ParseTimedTrace("msr_sample x"+strconv.Itoa(textPasses),
				bytes.NewReader(text), workload.TraceOptions{Format: workload.FormatMSR, TimeCompression: 20})
		})
	})
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_wall_s"] = setup.Seconds()

	cfg := fleet.Config{
		Shards: 2, Tenants: 256, Seed: c.seed,
		BlocksPerChip: 16, Channels: 1, DiesPerChannel: 2,
		Cache:  cache.Config{SizePages: 1024, Policy: cache.Policy2Q, Mode: cache.WriteBack},
		Repeat: repeat,
	}
	var res *fleet.Result
	var sec *section
	c.spans.do(0, "run", func(int) {
		if sec, err = startSection(c); err != nil {
			return
		}
		if res, err = fleet.Run(cfg, tr); err != nil {
			return
		}
		err = sec.stop(r, res.Requests)
	})
	if err != nil {
		return nil, err
	}

	c.spans.do(0, "audit", func(int) {
		r.Attempted = int64(records) * int64(repeat)
		r.Failed = r.Attempted - res.Requests
		r.Digest = digest(res.Report(), res.TraceHash)
		if res.Reads+res.Writes != res.Requests {
			r.failf("reads %d + writes %d != requests %d", res.Reads, res.Writes, res.Requests)
		}
		m := r.Metrics
		m["sim_iops"] = ratio(float64(res.Requests), float64(res.SimElapsedNs)/1e9)
		m["sim_read_p50_us"] = float64(res.ReadLat.Percentile(50)) / 1e3
		m["sim_read_p99_us"] = float64(res.ReadLat.Percentile(99)) / 1e3
		m["sim_write_p99_us"] = float64(res.WriteLat.Percentile(99)) / 1e3
		m["cache.hit_rate"] = res.HitRate()
		m["cache.dirty_evict_per_req"] = ratio(float64(res.CacheStats.DirtyEvictions), float64(res.Requests))
		var defers, most, flushRejects int64
		for _, s := range res.Shards {
			defers += s.Defers
			flushRejects += s.FlushRejects
			if s.Requests > most {
				most = s.Requests
			}
			if s.Degraded {
				r.failf("shard %d degraded", s.Shard)
			}
		}
		r.Failed += flushRejects
		m["fleet.defers_per_req"] = ratio(float64(defers), float64(res.Requests))
		m["fleet.shard_imbalance"] = ratio(float64(most)*float64(len(res.Shards)), float64(res.Requests))
	})
	return r, nil
}

// verifyReplay pushes the same trace text closed-loop through one
// device with the data-integrity oracle on: the fleet path itself has
// no oracle, but the replayed addresses and the FTL under them do.
func verifyReplay(c *runCtx, r *rep, text []byte, records int) (*rep, error) {
	dev, err := cubeftl.New(cubeftl.Options{FTL: cubeftl.FTLCube, Channels: 1, DiesPerChannel: 2,
		BlocksPerChip: 16, Seed: c.seed, VerifyData: true})
	if err != nil {
		return nil, err
	}
	st, err := dev.ReplayTrace("msr_sample", bytes.NewReader(text),
		cubeftl.TraceReplayOptions{Format: cubeftl.TraceFormatMSR, TimeCompression: 20, MaxRequests: records / 10})
	if err != nil {
		return nil, err
	}
	r.Attempted = int64(records / 10)
	r.Failed = r.Attempted - st.Requests
	r.Requests = st.Requests
	if st.DataMismatches != 0 {
		r.failf("%d data mismatches", st.DataMismatches)
	}
	return r, nil
}
