package main

// The benchmark's contract: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repository
// root restates the gated part of this file for the driver; the tests
// keep the two in step.

const (
	// repsPerRun is how many fresh child processes time each workload in
	// one invocation; the invocation reports their median.
	repsPerRun = 3
	// runSeconds is BENCHMARK.json's run_seconds: the measured wall per
	// invocation, split evenly across the repetitions.
	runSeconds = 5
)

type workloadSpec struct {
	name string
	why  string
	loop string // who paces the load
}

// Names are fixed: later issues cite them.
var workloadSpecs = []workloadSpec{
	{"mixed-fresh",
		"saturating 50/50 read/write on a fresh 2x4 cube device: engine, host, ftl, ssd and nand all work and GC runs throughout",
		"closed, QD 24"},
	{"read-aged",
		"read-only on the end-of-life device (2K P/E, 12 months): time goes to nand.ReadPage, vth, rng, ecc and the ORT; write path and GC idle",
		"closed, QD 24"},
	{"oltp-burst",
		"80% writes in 128-request bursts: program path, leader/follower allocation, write buffer and GC dominate; the paper's headline case",
		"closed, QD 24, bursts + think"},
	{"lifetime-3y",
		"36-month age jump then Rocks with refresh and wear leveling on: the only workload where lifetime, patrol and age buckets run",
		"closed, QD 24"},
	{"served-loopback",
		"cubeserved defaults over loopback TCP, 2 connections: framing, core loop, doorbell coalescing and durable acks; device does little",
		"closed, 2 connections, fixed duration"},
	{"fleet-replay",
		"MSR trace replay on 2 shards behind a 2Q write-back cache: trace parsing, cache, multi-queue host and fleet merge; device mostly bypassed",
		"open (trace timestamps), 2 shard goroutines"},
}

type metricSpec struct {
	name   string
	unit   string
	better string  // "higher" | "lower"
	bound  float64 // share of the baseline median the metric may worsen by
	// on lists the workloads the metric is defined on; nil means all.
	on []string
	// gated metrics are defined on every workload and never 0, so the
	// driver can bound them: they are BENCHMARK.json's end_to_end list.
	// The rest of endToEnd is checked by `-compare` only and reaches the
	// driver as per_layer metrics.
	gated bool
	// from says which repetition a per-layer metric is read from.
	from int
}

const (
	fromTraced   = iota // the traced repetition: telemetry, profile, counts
	fromUntraced        // the untraced repetitions: client- and process-side numbers
	fromIsolated        // the isolated-call measurements, the same for every workload
)

var (
	writers    = []string{"mixed-fresh", "oltp-burst", "lifetime-3y", "fleet-replay"}
	programers = []string{"mixed-fresh", "oltp-burst", "lifetime-3y"}
	served     = []string{"served-loopback"}
)

// endToEnd is what a user of the system sees, on both clocks.
//
// The reference box's speed drifts by tens of percent between sessions,
// so the gated time metrics (norm_cpu_us_per_req, setup_s) are stated at
// reference speed (calib.go); the raw readings (cpu_us_per_req,
// setup_wall_s) stand beside them. wall_req_per_s cannot be scaled on
// every workload and is not gated; on the single-threaded simulated
// workloads the CPU cost per request says the same thing.
//
// Bounds are set from the spread measured across ten seeds (README,
// "Baseline"): the driver accepts a benchmark only if each gated metric's
// interquartile range over its median stays within the bound. sim_*
// metrics and waf repeat exactly for one seed, so between two runs of one
// seed any difference in them is real; their bounds are tolerances for
// intended model changes, and sim_iops's also covers the spread across
// seeds, widest on read-aged because the seed picks the aged device's
// process personality.
var endToEnd = []metricSpec{
	{name: "sim_iops", unit: "1/sim_s", better: "higher", bound: 0.25, gated: true},
	{name: "sim_read_p50_us", unit: "sim_us", better: "lower", bound: 0.01},
	{name: "sim_read_p99_us", unit: "sim_us", better: "lower", bound: 0.01},
	{name: "sim_write_p99_us", unit: "sim_us", better: "lower", bound: 0.01, on: writers},
	{name: "sim_tprog_mean_us", unit: "sim_us", better: "lower", bound: 0.01, on: programers},
	{name: "waf", unit: "B/B", better: "lower", bound: 0.01, on: programers},
	{name: gainVsPage, unit: "%", better: "higher", bound: 0.05, on: []string{"oltp-burst"}},
	{name: "wall_req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_req", unit: "us", better: "lower", bound: 0.25},
	{name: "norm_cpu_us_per_req", unit: "us", better: "lower", bound: 0.25, gated: true},
	{name: "alloc_bytes_per_req", unit: "B", better: "lower", bound: 0.15, gated: true},
	{name: "allocs_per_req", unit: "count", better: "lower", bound: 0.10, gated: true},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25, gated: true},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, gated: true},
	{name: "setup_wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_rtt_p50_us", unit: "us", better: "lower", bound: 0.25, on: served},
	{name: "wall_rtt_p99_us", unit: "us", better: "lower", bound: 0.25, on: served},
	{name: "fail_frac", unit: "ratio", better: "lower", bound: 0}, // any increase
}

// gainVsPage needs a second device: the workloads it is defined on also
// run once on the page FTL, in the traced pass.
const gainVsPage = "sim_iops_gain_vs_page_pct"

func hasPageTwin(workload string) bool {
	for _, m := range endToEnd {
		if m.name == gainVsPage {
			return m.appliesTo(workload)
		}
	}
	return false
}

func (m metricSpec) appliesTo(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

func layer(from int, unit, better string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{name: n, unit: unit, better: better, from: from}
	}
	return out
}

func concat(lists ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// perLayer metrics carry the module name as their prefix. None is
// gated: they explain a change in an end-to-end metric, they do not
// justify one.
var perLayer = concat(
	// A. Isolated calls into each layer's public functions.
	layer(fromIsolated, "ns", "lower",
		"sim.schedule_step_ns", "rng.binomial_ns", "rng.zipf_ns", "vth.raw_ber_ns", "ecc.decode_ns",
		"nand.read_page_ns", "nand.read_page_aged_ns", "nand.program_wl_ns", "core.ort_lookup_ns",
		"ftl.page_read_ns", "ftl.page_write_ns", "host.submit_complete_ns",
		"metrics.hist_add_ns", "metrics.hist_p99_ns", "cache.lookup_ns", "cache.write_ns",
		"workload.next_ns", "workload.msr_parse_ns_per_rec", "server.frame_encode_ns", "server.frame_decode_ns"),
	layer(fromIsolated, "count", "lower",
		"sim.schedule_step_allocs", "nand.read_page_allocs", "nand.program_wl_allocs",
		"ftl.page_read_allocs", "ftl.page_write_allocs", "host.submit_complete_allocs", "server.frame_decode_allocs"),
	layer(fromIsolated, "B", "lower", "metrics.hist_bytes_per_sample"),
	layer(fromIsolated, "ms", "lower",
		"recovery.checkpoint_ms", "recovery.mount_ckpt_ms", "recovery.mount_fullscan_ms", "lifetime.age_36mo_ms"),

	// B. Counts the program already exposes; they repeat exactly on the
	// simulated workloads.
	layer(fromTraced, "1/kreq", "lower", "ftl.gc_runs_per_kreq", "ftl.gc_page_moves_per_kreq"),
	layer(fromTraced, "ratio", "higher", "ftl.buffer_hit_frac", "core.follower_frac", "core.ort_hit_frac",
		"core.retry_table_hit_frac", "cache.hit_rate"),
	layer(fromTraced, "ratio", "lower", "ftl.waf_gc_share", "ftl.waf_refresh_share", "ftl.waf_wl_share",
		"nand.retries_per_read", "cache.dirty_evict_per_req", "fleet.defers_per_req", "fleet.shard_imbalance"),
	layer(fromTraced, "count", "lower", "ftl.reprograms", "core.safety_rejects"),
	layer(fromUntraced, "count", "lower", "server.client_retries", "server.dup_acks", "server.rejects", "goruntime.gc_cycles"),
	layer(fromUntraced, "us", "lower", "server.read_rtt_p50_us", "server.write_rtt_p50_us", "server.write_rtt_p99_us"),
	layer(fromUntraced, "ratio", "lower", "goruntime.gc_cpu_frac"),
	// What the reference kernel cost beside the timed section: the
	// machine's speed, for auditing the metrics stated at reference speed.
	layer(fromUntraced, "ns", "lower", "machine.ref_wall_ns", "machine.ref_cpu_ns"),

	// C. The traced pass: where simulated time went (shares of mean
	// host-visible latency; reads and writes each sum to 1 with other)
	// and where wall time went (CPU samples by leaf package, summing to
	// 100).
	layer(fromTraced, "ratio", "lower",
		"host.read_queue_share", "ssd.read_plane_wait_share", "nand.read_cell_share", "nand.read_retry_share",
		"ssd.read_bus_share", "other.read_share",
		"ftl.write_admit_share", "ssd.write_plane_wait_share", "nand.write_cell_share", "other.write_share"),
	layer(fromTraced, "%", "lower", cpuPctNames()...),
	layer(fromTraced, "%", "lower", "telemetry.wall_overhead_pct"),
)

func cpuPctNames() []string {
	names := []string{"goruntime.malloc_cpu_pct", "goruntime.gc_cpu_pct", "other.cpu_pct"}
	for _, l := range profLayers {
		names = append(names, l+".cpu_pct")
	}
	return names
}

// driverPerLayer is BENCHMARK.json's per_layer list: the layer metrics
// plus the end-to-end metrics that are not defined on every workload
// and so cannot carry a driver-side bound.
func driverPerLayer() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if !m.gated && m.name != "fail_frac" {
			m.from = fromUntraced
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}
