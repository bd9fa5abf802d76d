package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes, so wall time can be attributed to layers
// without a module dependency or a `go tool pprof` subprocess. Only the
// fields the fold needs are decoded.

// profLayers are the packages under cubeftl/internal that get a
// <layer>.cpu_pct of their own.
var profLayers = []string{"sim", "rng", "vth", "ecc", "nand", "ssd", "core", "ftl", "host",
	"workload", "metrics", "telemetry", "cache", "fleet", "recovery", "lifetime", "server"}

const modulePrefix = "cubeftl/internal/"

// layerOf maps a function name such as
// "cubeftl/internal/nand.(*Chip).ReadPage" to its layer, "nand".
func layerOf(fn string) (string, bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	rest := fn[len(modulePrefix):]
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return "", false
	}
	pkg := rest[:end]
	for _, l := range profLayers {
		if l == pkg {
			return pkg, true
		}
	}
	return "", false
}

// Frames that mark a sample whose leaf is in the Go runtime as garbage
// collection or as allocation. Collection is checked first because an
// allocating goroutine can be drafted into marking (gcAssistAlloc).
var (
	gcFrames     = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkTermination", "runtime.gcStart", "runtime.sweepone"}
	mallocFrames = []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.newarray"}
)

func hasFrame(stack []string, marks []string) bool {
	for _, fn := range stack {
		for _, m := range marks {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

// classify attributes one sample, given its stack leaf first. Garbage
// collection and allocation are split out wherever they were triggered;
// any other sample belongs to the innermost frame that is in a layer, so
// a layer is charged for the standard-library and runtime calls it
// makes (math.Pow under vth, container/heap under sim) but not for
// calls into another layer. Stacks that never enter a layer — the
// facade, the scheduler, the harness — are "other".
func classify(stack []string) string {
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		switch {
		case hasFrame(stack, gcFrames):
			return "goruntime.gc_cpu_pct"
		case hasFrame(stack, mallocFrames):
			return "goruntime.malloc_cpu_pct"
		}
	}
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l + ".cpu_pct"
		}
	}
	return "other.cpu_pct"
}

// foldProfile returns each layer's percentage of the profile's CPU
// samples. Every key is present; the values sum to 100 unless the
// profile is empty.
func foldProfile(gz []byte) (map[string]float64, error) {
	out := map[string]float64{"goruntime.gc_cpu_pct": 0, "goruntime.malloc_cpu_pct": 0, "other.cpu_pct": 0}
	for _, l := range profLayers {
		out[l+".cpu_pct"] = 0
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, s := range p.samples {
		stack := make([]string, 0, len(s.locs))
		for _, loc := range s.locs {
			// Inlined frames of one location are listed leaf first.
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcName[fid])
			}
		}
		out[classify(stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range out {
			out[k] = 100 * out[k] / total
		}
	}
	return out, nil
}

type profSample struct {
	locs  []uint64
	value int64 // last sample type: CPU nanoseconds
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]string
}

// protoFields calls fn for every field of one protobuf message.
func protoFields(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// repeatedUvarint appends a repeated integer field that may arrive
// packed (wire 2) or one value at a time (wire 0).
func repeatedUvarint(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := protoFields(raw, func(num, wire int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			err := protoFields(data, func(num, wire int, v uint64, d []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedUvarint(s.locs, wire, v, d)
				case 2:
					values, err = repeatedUvarint(values, wire, v, d)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}
