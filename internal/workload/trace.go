package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Trace format: one request per line,
//
//	<op> <lpn> <pages> [think_ns]
//
// where op is "r" or "w". Lines starting with '#' and blank lines are
// ignored. The format is deliberately trivial so traces from real
// systems (blktrace post-processing, strace summaries) convert with a
// one-line awk script.

// WriteTrace records the next n requests of gen to w.
func WriteTrace(w io.Writer, gen Generator, n int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# cubeftl trace: %s, %d requests\n", gen.Name(), n)
	for i := 0; i < n; i++ {
		r := gen.Next()
		op := "r"
		if r.Op == Write {
			op = "w"
		}
		if r.ThinkNs > 0 {
			fmt.Fprintf(bw, "%s %d %d %d\n", op, r.LPN, r.Pages, r.ThinkNs)
		} else {
			fmt.Fprintf(bw, "%s %d %d\n", op, r.LPN, r.Pages)
		}
	}
	return bw.Flush()
}

// Trace is a recorded request sequence that replays as a Generator.
// Replaying past the end wraps around, so a finite trace can drive runs
// of any length.
type Trace struct {
	name string
	reqs []Request
	pos  int
}

// ParseTrace reads a trace.
func ParseTrace(name string, r io.Reader) (*Trace, error) {
	t := &Trace{name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || len(f) > 4 {
			return nil, fmt.Errorf("workload: trace line %d: want 3 or 4 fields, got %d", lineNo, len(f))
		}
		var req Request
		switch f[0] {
		case "r", "R":
			req.Op = Read
		case "w", "W":
			req.Op = Write
		default:
			return nil, fmt.Errorf("workload: trace line %d: bad op %q", lineNo, f[0])
		}
		lpn, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil || lpn < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad lpn %q", lineNo, f[1])
		}
		pages, err := strconv.Atoi(f[2])
		if err != nil || pages < 1 {
			return nil, fmt.Errorf("workload: trace line %d: bad pages %q", lineNo, f[2])
		}
		if int64(pages) > math.MaxInt64-lpn {
			return nil, fmt.Errorf("workload: trace line %d: lpn %d + %d pages overflows: %w", lineNo, lpn, pages, ErrTraceExtent)
		}
		req.LPN, req.Pages = lpn, pages
		if len(f) == 4 {
			think, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil || think < 0 {
				return nil, fmt.Errorf("workload: trace line %d: bad think %q", lineNo, f[3])
			}
			req.ThinkNs = think
		}
		t.reqs = append(t.reqs, req)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(t.reqs) == 0 {
		return nil, fmt.Errorf("workload: trace %q is empty", name)
	}
	return t, nil
}

// Name implements Generator.
func (t *Trace) Name() string { return t.name }

// Len returns the number of recorded requests.
func (t *Trace) Len() int { return len(t.reqs) }

// MaxLPN returns the highest page touched (for sizing the device).
func (t *Trace) MaxLPN() int64 {
	max := int64(0)
	for _, r := range t.reqs {
		if end := r.LPN + int64(r.Pages); end > max {
			max = end
		}
	}
	return max
}

// Next implements Generator, wrapping at the end of the recording.
func (t *Trace) Next() Request {
	r := t.reqs[t.pos]
	t.pos++
	if t.pos == len(t.reqs) {
		t.pos = 0
	}
	return r
}

var _ Generator = (*Trace)(nil)
