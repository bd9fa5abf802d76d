package workload

// The string-based block-trace parser the byte scanner in msr.go
// replaced, kept as the reference FuzzParseTimedTrace compares it
// against: a line string per record, strings.Split for the fields and
// strconv for the numbers. Its one known difference is a
// line longer than the 1 MiB bound, which it cannot skip: bufio.Scanner
// stops with ErrTooLong.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"cubeftl/internal/sim"
)

// refRequest is a TimedRequest with its origin spelled out.
type refRequest struct {
	AtNs  sim.Time
	Host  string
	Disk  int
	Op    Op
	LPN   int64
	Pages int
}

// refTrace is what the reference parser returns: the records and the
// ingestion accounting of a TimedTrace.
type refTrace struct {
	Reqs             []refRequest
	Skipped, Clamped int
	Streams          int
	MaxLPN           int64
	SpanNs           sim.Time
}

type refStreamKey struct {
	host string
	disk int
}

// refRecord is one parsed line before page quantization, its time in
// FILETIME ticks.
type refRecord struct {
	ticks  int64
	host   string
	disk   int
	op     Op
	offset int64
	bytes  int64
}

func refParseTimedTrace(name string, r io.Reader, opt TraceOptions) (*refTrace, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}

	t := &refTrace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)

	var (
		lineNo   int
		haveT0   bool
		t0, prev int64
		streams  = map[refStreamKey]struct{}{}
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, perr := refParseRecord(line, lineNo)
		if perr != nil {
			if opt.Tolerant {
				t.Skipped++
				continue
			}
			return nil, perr
		}
		if !haveT0 {
			haveT0, t0, prev = true, rec.ticks, rec.ticks
		}
		if rec.ticks < prev {
			if !opt.Tolerant {
				return nil, &TraceParseError{Line: lineNo,
					Detail: fmt.Sprintf("timestamp went backwards by %d units", prev-rec.ticks),
					kind:   ErrTraceOutOfOrder}
			}
			t.Clamped++
			rec.ticks = prev
		}
		atNs := float64(rec.ticks-t0) * 100 / opt.TimeCompression
		if !(atNs < math.MaxInt64) {
			if !opt.Tolerant {
				return nil, &TraceParseError{Line: lineNo,
					Detail: fmt.Sprintf("arrival %g ns after the first record is past the simulated clock", atNs),
					kind:   ErrTraceRecord}
			}
			t.Skipped++
			continue
		}
		prev = rec.ticks
		at := sim.Time(atNs)

		lpn := rec.offset / tracePageBytes
		pages := int((rec.offset+rec.bytes-1)/tracePageBytes - lpn + 1)
		streams[refStreamKey{rec.host, rec.disk}] = struct{}{}
		if e := lpn + int64(pages); e > t.MaxLPN {
			t.MaxLPN = e
		}
		t.SpanNs = at
		t.Reqs = append(t.Reqs, refRequest{AtNs: at, Host: rec.host, Disk: rec.disk, Op: rec.op, LPN: lpn, Pages: pages})
		if opt.MaxRequests > 0 && len(t.Reqs) >= opt.MaxRequests {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace %q: %w", name, err)
	}
	if len(t.Reqs) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrTraceEmpty, name)
	}
	t.Streams = len(streams)
	return t, nil
}

func refParseRecord(line string, lineNo int) (refRecord, *TraceParseError) {
	fail := func(kind error, detail string) (refRecord, *TraceParseError) {
		return refRecord{}, &TraceParseError{Line: lineNo, Detail: detail, kind: kind}
	}
	f := strings.Split(line, ",")
	if len(f) < 7 {
		return fail(ErrTraceRecord, fmt.Sprintf("truncated record: %d of 7 fields", len(f)))
	}
	ticks, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
	if err != nil || ticks < 0 {
		return fail(ErrTraceRecord, fmt.Sprintf("bad timestamp %q", f[0]))
	}
	disk, err := strconv.Atoi(strings.TrimSpace(f[2]))
	if err != nil || disk < 0 {
		return fail(ErrTraceRecord, fmt.Sprintf("bad disk number %q", f[2]))
	}
	op, ok := refParseOp(strings.TrimSpace(f[3]))
	if !ok {
		return fail(ErrTraceOp, fmt.Sprintf("op %q (want Read|Write)", f[3]))
	}
	offset, err := strconv.ParseInt(strings.TrimSpace(f[4]), 10, 64)
	if err != nil || offset < 0 {
		return fail(ErrTraceRecord, fmt.Sprintf("bad offset %q", f[4]))
	}
	size, err := strconv.ParseInt(strings.TrimSpace(f[5]), 10, 64)
	if err != nil || size < 0 {
		return fail(ErrTraceRecord, fmt.Sprintf("bad size %q", f[5]))
	}
	if size == 0 {
		return fail(ErrTraceZeroExtent, fmt.Sprintf("zero-byte request at offset %d", offset))
	}
	if size > math.MaxInt64-offset {
		return fail(ErrTraceRecord, fmt.Sprintf("extent of %d bytes at offset %d ends past 2^63", size, offset))
	}
	return refRecord{ticks: ticks, host: strings.TrimSpace(f[1]), disk: disk, op: op, offset: offset, bytes: size}, nil
}

func refParseOp(s string) (Op, bool) {
	switch s {
	case "Read", "read", "READ", "R", "r":
		return Read, true
	case "Write", "write", "WRITE", "W", "w":
		return Write, true
	}
	return 0, false
}
