package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cubeftl"
	"cubeftl/internal/cache"
	"cubeftl/internal/core"
	"cubeftl/internal/ecc"
	"cubeftl/internal/metrics"
	"cubeftl/internal/nand"
	"cubeftl/internal/rng"
	"cubeftl/internal/server"
	"cubeftl/internal/sim"
	"cubeftl/internal/ssd"
	"cubeftl/internal/vth"
	"cubeftl/internal/workload"
)

// Isolated calls: each layer's public functions timed on their own, once
// per invocation. They say what one call costs when nothing else
// contends; the workloads say how often it is made.

// sink keeps results alive so the compiler cannot drop the measured call.
var sink any

// isolated runs every isolated-call measurement and returns the
// per-layer metrics. benchtime bounds each testing.Benchmark.
func isolated(seed uint64, benchtime time.Duration) (map[string]float64, error) {
	testing.Init()
	// Under `go test` the flag is the test binary's own: put it back.
	prev := flag.Lookup("test.benchtime").Value.String()
	defer flag.Set("test.benchtime", prev)
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var firstErr error
	bench := func(name string, allocs bool, fn func(b *testing.B)) {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		if res.N == 0 && firstErr == nil {
			firstErr = fmt.Errorf("isolated %s did not run", name)
		}
		m[name+"_ns"] = float64(res.T.Nanoseconds()) / float64(max(res.N, 1))
		if allocs {
			m[name+"_allocs"] = float64(res.MemAllocs) / float64(max(res.N, 1))
		}
	}

	bench("sim.schedule_step", true, func(b *testing.B) {
		eng := sim.NewEngine()
		src := rng.New(seed)
		fn := func() {}
		for i := 0; i < 1000; i++ {
			eng.Schedule(sim.Time(src.Intn(1_000_000)), fn)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.After(sim.Time(src.Intn(1_000_000)), fn)
			eng.Step()
		}
	})
	bench("rng.binomial", false, func(b *testing.B) {
		src := rng.New(seed)
		n := 0
		for i := 0; i < b.N; i++ {
			n += src.Binomial(131072, 1e-4)
		}
		sink = n
	})
	bench("rng.zipf", false, func(b *testing.B) {
		z := rng.NewZipf(rng.New(seed), 1<<20, 0.99)
		b.ResetTimer()
		var n uint64
		for i := 0; i < b.N; i++ {
			n += z.Next()
		}
		sink = n
	})
	bench("vth.raw_ber", false, func(b *testing.B) {
		nominal := vth.NominalDistribution()
		var s float64
		for i := 0; i < b.N; i++ {
			d := nominal.Age(1+float64(i%12)/12, 2)
			s += d.RawBER(d.MidpointRefs())
		}
		sink = s
	})
	bench("ecc.decode", false, func(b *testing.B) {
		e := ecc.NewEngine(rng.New(seed))
		var r ecc.Result
		for i := 0; i < b.N; i++ {
			r = e.Decode(2e-3, pageBytes)
		}
		sink = r
	})

	chipCfg := nand.DefaultConfig()
	chipCfg.Process.Seed = seed
	chipCfg.Process.BlocksPerChip = 64
	readPage := func(aged bool) func(b *testing.B) {
		return func(b *testing.B) {
			c := nand.New(chipCfg)
			if aged {
				c.SetPECycles(0, 2000)
				c.SetFixedRetention(12)
				c.SetReadJitterProb(0.5)
			}
			a := nand.Address{Block: 0, Layer: 3, WL: 2}
			if _, err := c.ProgramWL(a, nil, nand.ProgramParams{}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Uncorrectable reads are a modelled outcome on the aged
				// chip, not a harness failure.
				res, _ := c.ReadPage(a, nand.ReadParams{})
				sink = res
			}
		}
	}
	bench("nand.read_page", true, readPage(false))
	bench("nand.read_page_aged", false, readPage(true))
	bench("nand.program_wl", true, func(b *testing.B) {
		c := nand.New(chipCfg)
		layers, wls := chipCfg.Process.Layers, chipCfg.Process.WLsPerLayer
		perBlock := layers * wls
		for i := 0; i < b.N; i++ {
			w := i % perBlock
			if i > 0 && w == 0 {
				if _, err := c.EraseBlock(0); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := c.ProgramWL(nand.Address{Block: 0, Layer: w / wls, WL: w % wls}, nil, nand.ProgramParams{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench("core.ort_lookup", false, func(b *testing.B) {
		geo := ssd.Geometry{Chips: 8, Channels: 2, DiesPerChannel: 4, BlocksPerChip: 128,
			Layers: chipCfg.Process.Layers, WLsPerLayer: chipCfg.Process.WLsPerLayer, PageBytes: pageBytes}
		cube := core.New(geo)
		n := 0
		for i := 0; i < b.N; i++ {
			chip, block, layer := i%geo.Chips, (i/8)%geo.BlocksPerChip, i%geo.Layers
			off := cube.ReadStartOffset(chip, block, layer)
			cube.ObserveRead(chip, block, layer, nand.ReadResult{OffsetUsed: off}, nil)
			n += off
		}
		sink = n
	})

	// The FTL and host paths are reached through the facade, one command
	// at a time on an otherwise idle device.
	dev, err := cubeftl.New(cubeftl.Options{FTL: cubeftl.FTLCube, BlocksPerChip: 64, Seed: seed})
	if err != nil {
		return nil, err
	}
	mapped := int64(prefillFrac * float64(dev.LogicalPages()))
	dev.Prefill(mapped)
	addrs := lcg(seed)
	bench("ftl.page_read", true, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := dev.Read(int64(addrs.next())%mapped, nil); err != nil {
				b.Fatal(err)
			}
			dev.Run()
		}
	})
	bench("ftl.page_write", true, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := dev.Write(int64(addrs.next())%mapped, nil); err != nil {
				b.Fatal(err)
			}
			dev.Run()
		}
	})
	fe, err := dev.AttachFrontEnd([]cubeftl.QueueSpec{{Name: "q"}}, cubeftl.ArbRR, 0)
	if err != nil {
		return nil, err
	}
	bench("host.submit_complete", true, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := fe.Submit(0, false, int64(addrs.next())%mapped, 1, nil); err != nil {
				b.Fatal(err)
			}
			fe.Pump()
		}
	})

	bench("metrics.hist_add", false, func(b *testing.B) {
		h := metrics.NewHist(0)
		src := rng.New(seed)
		for i := 0; i < b.N; i++ {
			h.Add(int64(src.Intn(5_000_000)))
		}
		sink = h
	})
	{
		// What a run pays when it asks for its tail latency: the first
		// percentile of a histogram holding a million samples.
		const held = 1_000_000
		var ns []float64
		for i := 0; i < isolatedSamples; i++ {
			src := rng.New(seed)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			h := metrics.NewHist(0)
			for j := 0; j < held; j++ {
				h.Add(int64(src.Intn(5_000_000)))
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			m["metrics.hist_bytes_per_sample"] = float64(after.HeapAlloc-before.HeapAlloc) / held
			t0 := time.Now()
			sink = h.Percentile(99)
			ns = append(ns, float64(time.Since(t0).Nanoseconds()))
		}
		m["metrics.hist_p99_ns"] = median(ns)
	}

	c2q, err := cache.New(cache.Config{SizePages: 1024, Policy: cache.Policy2Q, Mode: cache.WriteBack})
	if err != nil {
		return nil, err
	}
	bench("cache.write", false, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, flush := c2q.Write(int64(addrs.next()%4096), 1)
			sink = flush
		}
	})
	bench("cache.lookup", false, func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if c2q.Lookup(int64(addrs.next()%4096), 1) {
				hits++
			}
		}
		sink = hits
	})

	bench("workload.next", false, func(b *testing.B) {
		prof, _ := workload.ByName("Mixed")
		gen := workload.NewStream(prof, 1<<20, seed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = gen.Next()
		}
	})
	{
		var records int
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr, err := workload.ParseTimedTrace("fixture", bytes.NewReader(msrFixture), workload.TraceOptions{})
				if err != nil {
					b.Fatal(err)
				}
				records = tr.Len()
			}
		})
		if records == 0 {
			return nil, fmt.Errorf("isolated workload.msr_parse parsed no records")
		}
		m["workload.msr_parse_ns_per_rec"] = float64(res.NsPerOp()) / float64(records)
	}

	req := server.IORequest{Op: server.OpWrite, Seq: 7, AckFloor: 6, LPN: 12345, Pages: 1}
	bench("server.frame_encode", false, func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = server.AppendIO(buf[:0], req)
		}
		sink = buf
	})
	bench("server.frame_decode", true, func(b *testing.B) {
		frame := server.AppendIO(nil, req)
		rd := bytes.NewReader(nil)
		br := bufio.NewReader(rd)
		var scratch []byte
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			br.Reset(rd)
			_, body, err := server.ReadFrame(br, scratch)
			if err != nil {
				b.Fatal(err)
			}
			got, err := server.ParseIO(body)
			if err != nil || got.LPN != req.LPN {
				b.Fatalf("decode: %+v, %v", got, err)
			}
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}

	if err := isolatedRecovery(m, seed); err != nil {
		return nil, err
	}
	return m, isolatedAge(m, seed)
}

// timeMs runs fn and returns its wall milliseconds.
func timeMs(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

const isolatedSamples = 3

// isolatedRecovery times a checkpoint and the two kinds of mount, each
// on a device that has taken overwrites since its last checkpoint, and
// reports the median of a few fresh devices.
func isolatedRecovery(m map[string]float64, seed uint64) error {
	samples := map[string][]float64{}
	for i := 0; i < isolatedSamples; i++ {
		dev, err := cubeftl.New(cubeftl.Options{FTL: cubeftl.FTLCube, BlocksPerChip: 32, Seed: seed, Recovery: true})
		if err != nil {
			return err
		}
		dev.Prefill(int64(prefillFrac * float64(dev.LogicalPages())))
		dirty := func() error {
			_, err := dev.RunWorkload("Mixed", 3000, queueDepth)
			return err
		}
		steps := []struct {
			name string
			fn   func() error
		}{
			// CheckpointNow is a no-op while a periodic checkpoint is in
			// flight, so let that one land first; then time the snapshot,
			// its encoding and the run until it is durable.
			{"recovery.checkpoint_ms", func() error {
				if err := dev.CheckpointNow(); err != nil {
					return err
				}
				dev.Quiesce()
				return nil
			}},
			{"recovery.mount_ckpt_ms", func() error { _, err := dev.Remount(false, false); return err }},
			{"recovery.mount_fullscan_ms", func() error { _, err := dev.Remount(false, true); return err }},
		}
		for j, st := range steps {
			if err := dirty(); err != nil {
				return err
			}
			if j == 0 {
				dev.Quiesce()
			} else if err := dev.PowerCut(); err != nil { // mounts follow a power cut
				return err
			}
			ms, err := timeMs(st.fn)
			if err != nil {
				return fmt.Errorf("%s: %w", st.name, err)
			}
			samples[st.name] = append(samples[st.name], ms)
		}
	}
	for name, v := range samples {
		m[name] = median(v)
	}
	return nil
}

func isolatedAge(m map[string]float64, seed uint64) error {
	var samples []float64
	for i := 0; i < isolatedSamples; i++ {
		dev, err := cubeftl.New(cubeftl.Options{FTL: cubeftl.FTLCube, BlocksPerChip: 32, Seed: seed,
			RetryMode: "ort-pr", Refresh: true, WearLevel: true})
		if err != nil {
			return err
		}
		dev.Prefill(int64(prefillFrac * float64(dev.LogicalPages())))
		ms, _ := timeMs(func() error { dev.AgeMonths(36); return nil })
		samples = append(samples, ms)
	}
	m["lifetime.age_36mo_ms"] = median(samples)
	return nil
}
