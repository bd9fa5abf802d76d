package main

import (
	"math"
	"time"
)

// The reference box's speed changes by tens of percent from one session
// to the next, and by more for minutes at a time, as neighbours come and
// go. A metric in seconds measured in one session cannot be compared
// with one measured in the next. So every timed section is bracketed by
// a fixed reference computation, and the gated time metrics
// (norm_cpu_us_per_req, setup_s) are stated at reference speed: the raw
// measurement scaled by how fast the reference ran beside it, relative
// to refNominal*. The raw measurements are reported next to them. Only
// CPU-bound quantities can be scaled this way: served-loopback's request
// rate is set by a timer, so wall_req_per_s stays raw and ungated.
//
// The reference is frozen with the benchmark: it shares no code with the
// program, so speeding the program up cannot speed the reference up.

const (
	// refOpsPerSec sizes each of the two calibrations to about three
	// eighths of the timed section they bracket (0.6 s beside 1.7 s).
	// Calibrations of 0.3 s were noisier than the drift they are meant
	// to remove.
	refOpsPerSec = 1_500_000
	// What one reference operation costs on the reference box in its
	// usual state; normalised and raw metrics agree there.
	refNominalWallNs = 250.0
	refNominalCPUNs  = 320.0
)

type refNode struct {
	next *refNode
	key  uint64
	pad  [4]uint64
}

// refKernel does a fixed amount of work shaped like the simulator's:
// short-lived small allocations that keep the collector busy on the
// other core, pointer chasing through a working set larger than the
// cache, and transcendental floating point.
func refKernel(n int) uint64 {
	const slots = 1 << 16
	ring := make([]*refNode, slots)
	x := uint64(88172645463325252)
	var acc float64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := x & (slots - 1)
		ring[slot] = &refNode{next: ring[(slot+1)&(slots-1)], key: x}
		if p := ring[(slot*31)&(slots-1)]; p != nil && p.next != nil {
			x += p.next.key
		}
		if i%8 == 0 {
			acc += math.Pow(1.0001, float64(x%1024))
		}
	}
	return x + uint64(acc)
}

// calibrate runs the reference kernel beside a timed section sized for
// size seconds and returns its wall and CPU nanoseconds per operation.
func calibrate(size float64) (wallNs, cpuNs float64, err error) {
	ops := max(10_000, int(size*refOpsPerSec))
	cpu0, err := processCPUSeconds()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	sink = refKernel(ops)
	wall := time.Since(t0)
	cpu1, err := processCPUSeconds()
	if err != nil {
		return 0, 0, err
	}
	return float64(wall.Nanoseconds()) / float64(ops), (cpu1 - cpu0) * 1e9 / float64(ops), nil
}
