package experiment

import (
	"fmt"

	"cubeftl/internal/workload"
)

// ParallelTopology is one backend shape of the scaling sweep.
type ParallelTopology struct {
	Channels       int
	DiesPerChannel int
}

// Dies returns the total die count.
func (t ParallelTopology) Dies() int { return t.Channels * t.DiesPerChannel }

// String renders "CxD" (channels x dies-per-channel).
func (t ParallelTopology) String() string {
	return fmt.Sprintf("%dx%d", t.Channels, t.DiesPerChannel)
}

// ParallelTopologies is the ext-parallel sweep: 1 die up to 16 dies
// across 1 to 4 channels.
var ParallelTopologies = []ParallelTopology{
	{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4},
}

// ExtParallelResult is the multi-channel, multi-die scaling study: the
// Mixed workload under cubeFTL at each topology, with every
// configuration run twice at the same seed to prove the dispatch
// sequence replays bit-identically.
type ExtParallelResult struct {
	Topologies []ParallelTopology
	IOPS       []float64
	// Speedup is IOPS normalized to the single-die topology.
	Speedup []float64
	// TraceHash fingerprints the host grant sequence of the first run;
	// ReplayOK reports whether the second same-seed run matched it.
	TraceHash []uint64
	ReplayOK  []bool
	GCCount   []int64
}

// ExtParallelScaling measures Mixed-workload throughput as the backend
// grows from one die to four channels of four dies. Channel buses and
// per-die planes are the contended resources, so IOPS should scale
// with dies until the host queue depth (not the backend) saturates.
func ExtParallelScaling(opts SSDOpts) *ExtParallelResult {
	res := &ExtParallelResult{Topologies: ParallelTopologies}
	for _, topo := range ParallelTopologies {
		o := opts
		o.Channels, o.DiesPerChannel = topo.Channels, topo.DiesPerChannel
		out := RunWorkload(PolicyCube, workload.Mixed, o)
		rerun := RunWorkload(PolicyCube, workload.Mixed, o)
		res.IOPS = append(res.IOPS, out.IOPS())
		res.TraceHash = append(res.TraceHash, out.Result.TraceHash)
		res.ReplayOK = append(res.ReplayOK, out.Result.TraceHash == rerun.Result.TraceHash)
		res.GCCount = append(res.GCCount, out.Stats.GCCount)
	}
	base := res.IOPS[0]
	for _, v := range res.IOPS {
		if base > 0 {
			res.Speedup = append(res.Speedup, v/base)
		} else {
			res.Speedup = append(res.Speedup, 0)
		}
	}
	return res
}

// Table renders the scaling rows.
func (r *ExtParallelResult) Table() *Table {
	t := &Table{
		Title: "ext-parallel: Mixed IOPS vs backend topology (cubeFTL)",
		Cols:  []string{"topology", "dies", "IOPS", "speedup", "GC runs", "trace hash", "replay"},
	}
	for i, topo := range r.Topologies {
		replay := "ok"
		if !r.ReplayOK[i] {
			replay = "DIVERGED"
		}
		t.Rows = append(t.Rows, []string{
			topo.String(),
			fmt.Sprintf("%d", topo.Dies()),
			fmt.Sprintf("%.0f", r.IOPS[i]),
			f3(r.Speedup[i]),
			fmt.Sprintf("%d", r.GCCount[i]),
			fmt.Sprintf("%016x", r.TraceHash[i]),
			replay,
		})
	}
	t.Notes = append(t.Notes,
		"speedup is IOPS normalized to the 1x1 (single-die) backend",
		"replay: each topology runs twice at the same seed; 'ok' means bit-identical grant traces")
	return t
}
