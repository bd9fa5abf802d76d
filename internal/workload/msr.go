package workload

// Real block-trace ingestion: parsers for the two public trace families
// the storage-systems literature replays most — MSR-Cambridge (SNIA IOTTA,
// Narayanan et al., FAST '08) and the FIU/SyLab traces — feeding the
// fleet replayer and the single-device runners. The parsers are
// streaming (line-at-a-time over a bufio.Scanner, bounded memory per
// line), tolerant when asked (malformed lines are counted and skipped
// instead of aborting a multi-GB ingest), and return typed errors in
// strict mode so callers can distinguish a truncated record from an
// out-of-order timestamp from a bogus extent.
//
// MSR-Cambridge CSV, one record per line:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// where Timestamp is a Windows FILETIME (100 ns ticks), Type is
// "Read"/"Write", and Offset/Size are bytes.
//
// FIU (blkio-style), whitespace-separated:
//
//	Timestamp PID Process LBA SizeBlocks Op Major Minor [MD5]
//
// where Timestamp is seconds (fractional), LBA/SizeBlocks are 512-byte
// sectors, and Op is "R"/"W".

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"cubeftl/internal/sim"
)

// Typed trace-ingestion errors. Strict-mode parse failures wrap one of
// these (inside a *TraceParseError carrying the line number), so
// callers test with errors.Is.
var (
	// ErrTraceEmpty reports a trace with no parseable records.
	ErrTraceEmpty = errors.New("workload: trace contains no records")
	// ErrTraceRecord reports a structurally malformed record: wrong
	// field count (truncated line) or an unparseable numeric field.
	ErrTraceRecord = errors.New("workload: malformed trace record")
	// ErrTraceOp reports an unrecognized operation field.
	ErrTraceOp = errors.New("workload: bad trace op")
	// ErrTraceZeroExtent reports a request of zero bytes.
	ErrTraceZeroExtent = errors.New("workload: zero-length extent")
	// ErrTraceOutOfOrder reports a timestamp earlier than its
	// predecessor.
	ErrTraceOutOfOrder = errors.New("workload: timestamp out of order")
	// ErrTraceExtent reports an extent larger than the device's logical
	// space (surfaced by Remap).
	ErrTraceExtent = errors.New("workload: extent exceeds device range")
	// ErrTraceFormat reports an unrecognized trace format.
	ErrTraceFormat = errors.New("workload: unrecognized trace format")
)

// TraceParseError locates a strict-mode parse failure. It wraps one of
// the sentinel errors above.
type TraceParseError struct {
	Format string // "msr" or "fiu"
	Line   int    // 1-based line number
	Detail string
	kind   error
}

// Error implements error.
func (e *TraceParseError) Error() string {
	return fmt.Sprintf("%v: %s line %d: %s", e.kind, e.Format, e.Line, e.Detail)
}

// Unwrap exposes the sentinel kind for errors.Is.
func (e *TraceParseError) Unwrap() error { return e.kind }

// Trace format names accepted by TraceOptions.Format.
const (
	FormatAuto = "auto"
	FormatMSR  = "msr"
	FormatFIU  = "fiu"
)

// TraceOptions shapes trace ingestion.
type TraceOptions struct {
	// Format selects the parser: FormatMSR, FormatFIU, or FormatAuto
	// (default) which sniffs the first record.
	Format string
	// TimeCompression divides every inter-arrival gap: 10 replays a
	// day-long trace in 1/10th of its simulated span, 0.5 doubles every
	// gap, and 0 means no compression. Compression rescales time, it
	// does not reorder; a negative or non-finite factor is an error.
	TimeCompression float64
	// Tolerant skips malformed records (counting them in Skipped) and
	// clamps out-of-order timestamps (counting them in Clamped) instead
	// of failing the parse. Empty traces are an error in both modes.
	Tolerant bool
	// MaxRequests bounds ingestion (0 = no bound) so a multi-GB trace
	// can be sampled without reading it all.
	MaxRequests int
}

// tracePageBytes is the simulated page size extents are quantized to:
// the device's page.
const tracePageBytes = 16 * 1024

func (o TraceOptions) withDefaults() (TraceOptions, error) {
	if c := o.TimeCompression; !(c >= 0 && c <= math.MaxFloat64) {
		return o, fmt.Errorf("workload: -compress (TimeCompression) must be a finite, non-negative factor, got %v", c)
	}
	if o.Format == "" {
		o.Format = FormatAuto
	}
	if o.TimeCompression == 0 {
		o.TimeCompression = 1
	}
	return o, nil
}

// TimedRequest is one trace record resolved to simulated time and page
// units: a Request plus its (compressed, zero-based) arrival time and
// the origin stream identity used for tenant synthesis.
type TimedRequest struct {
	AtNs  sim.Time // arrival, first record = 0, after compression
	Host  string   // MSR hostname / FIU process
	Disk  int      // MSR disk number / FIU device minor
	Op    Op
	LPN   int64 // in source page space (Offset / tracePageBytes)
	Pages int
}

// TimedTrace is a parsed real-world block trace.
type TimedTrace struct {
	Name string
	Reqs []TimedRequest

	// Ingestion accounting (tolerant mode).
	Skipped int // malformed records dropped
	Clamped int // out-of-order timestamps clamped to their predecessor

	// Streams counts distinct (host, disk) origin pairs.
	Streams int
	// MaxLPN is the highest source page touched plus one (the source
	// address-space size in pages).
	MaxLPN int64
	// SpanNs is the compressed arrival span (last minus first).
	SpanNs sim.Time

	reads, writes int64
}

// Reads returns the read-record count.
func (t *TimedTrace) Reads() int64 { return t.reads }

// Writes returns the write-record count.
func (t *TimedTrace) Writes() int64 { return t.writes }

// Len returns the record count.
func (t *TimedTrace) Len() int { return len(t.Reqs) }

// String summarizes the trace.
func (t *TimedTrace) String() string {
	return fmt.Sprintf("trace{%s: %d reqs (%d r / %d w), %d streams, span %.3fs, skipped %d, clamped %d}",
		t.Name, len(t.Reqs), t.reads, t.writes, t.Streams,
		float64(t.SpanNs)/1e9, t.Skipped, t.Clamped)
}

// ParseTimedTrace ingests an MSR-Cambridge or FIU block trace.
func ParseTimedTrace(name string, r io.Reader, opt TraceOptions) (*TimedTrace, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	switch opt.Format {
	case FormatAuto, FormatMSR, FormatFIU:
	default:
		return nil, fmt.Errorf("%w: %q (want %s|%s|%s)", ErrTraceFormat, opt.Format, FormatAuto, FormatMSR, FormatFIU)
	}

	t := &TimedTrace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)

	var (
		format   = opt.Format
		lineNo   int
		haveT0   bool
		t0, prev int64 // raw source ns
		streams  = map[streamKey]struct{}{}
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if format == FormatAuto {
			format = sniffFormat(line)
			if format == "" {
				return nil, &TraceParseError{Format: FormatAuto, Line: lineNo,
					Detail: "cannot identify MSR CSV or FIU record", kind: ErrTraceFormat}
			}
		}
		rec, perr := parseRecord(format, line, lineNo)
		if perr != nil {
			if opt.Tolerant {
				t.Skipped++
				continue
			}
			return nil, perr
		}
		if !haveT0 {
			haveT0, t0, prev = true, rec.rawNs, rec.rawNs
		}
		if rec.rawNs < prev {
			if !opt.Tolerant {
				return nil, &TraceParseError{Format: format, Line: lineNo,
					Detail: fmt.Sprintf("timestamp went backwards by %d units", prev-rec.rawNs),
					kind:   ErrTraceOutOfOrder}
			}
			t.Clamped++
			rec.rawNs = prev
		}
		// Both times are non-negative, so the difference cannot overflow;
		// the scaled arrival can leave the simulated clock's range.
		atNs := float64(rec.rawNs-t0) * rec.nsPerUnit / opt.TimeCompression
		if !(atNs < math.MaxInt64) {
			if !opt.Tolerant {
				return nil, &TraceParseError{Format: format, Line: lineNo,
					Detail: fmt.Sprintf("arrival %g ns after the first record is past the simulated clock", atNs),
					kind:   ErrTraceRecord}
			}
			t.Skipped++
			continue
		}
		prev = rec.rawNs
		at := sim.Time(atNs)

		// The extent's last byte is offset+bytes-1 (no overflow: parseRecord
		// keeps offset+bytes in range), so it spans at least one page.
		lpn := rec.offset / tracePageBytes
		pages := int((rec.offset+rec.bytes-1)/tracePageBytes - lpn + 1)
		tr := TimedRequest{
			AtNs: at, Host: rec.host, Disk: rec.disk,
			Op: rec.op, LPN: lpn, Pages: pages,
		}
		streams[streamKey{rec.host, rec.disk}] = struct{}{}
		if tr.Op == Read {
			t.reads++
		} else {
			t.writes++
		}
		if e := lpn + int64(pages); e > t.MaxLPN {
			t.MaxLPN = e
		}
		t.SpanNs = at
		t.Reqs = append(t.Reqs, tr)
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

type streamKey struct {
	host string
	disk int
}

// record is one parsed line before page quantization. rawNs is in the
// format's NATIVE time unit (FILETIME 100 ns ticks for MSR, ns for
// FIU); nsPerUnit converts a small delta to ns. Multiplying an absolute
// FILETIME by 100 would overflow int64 (the 1601 epoch sits at ~1.3e17
// ticks), so the conversion is deferred until after t0-subtraction.
type record struct {
	rawNs     int64   // source time in native units (format epoch)
	nsPerUnit float64 // ns per native unit
	host      string
	disk      int
	op        Op
	offset    int64 // bytes
	bytes     int64
}

// sniffFormat identifies a record line: MSR is comma-separated with 7
// fields, FIU whitespace-separated with 6+.
func sniffFormat(line string) string {
	if strings.Count(line, ",") >= 6 {
		return FormatMSR
	}
	if len(strings.Fields(line)) >= 6 {
		return FormatFIU
	}
	return ""
}

func parseRecord(format, line string, lineNo int) (record, *TraceParseError) {
	fail := func(kind error, detail string) (record, *TraceParseError) {
		return record{}, &TraceParseError{Format: format, Line: lineNo, Detail: detail, kind: kind}
	}
	switch format {
	case FormatMSR:
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
		op, ok := parseOp(strings.TrimSpace(f[3]))
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
		return record{
			rawNs:     ticks, // FILETIME 100 ns ticks; scaled after t0-subtraction
			nsPerUnit: 100,
			host:      strings.TrimSpace(f[1]),
			disk:      disk,
			op:        op,
			offset:    offset,
			bytes:     size,
		}, nil

	case FormatFIU:
		f := strings.Fields(line)
		if len(f) < 6 {
			return fail(ErrTraceRecord, fmt.Sprintf("truncated record: %d of 6+ fields", len(f)))
		}
		// A timestamp, LBA and size must each fit an int64 once scaled to
		// ns and bytes; NaN fails the first comparison.
		sec, err := strconv.ParseFloat(f[0], 64)
		if err != nil || !(sec >= 0 && sec*1e9 < math.MaxInt64) {
			return fail(ErrTraceRecord, fmt.Sprintf("bad timestamp %q", f[0]))
		}
		lba, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil || lba < 0 || lba > math.MaxInt64/512 {
			return fail(ErrTraceRecord, fmt.Sprintf("bad lba %q", f[3]))
		}
		blocks, err := strconv.ParseInt(f[4], 10, 64)
		if err != nil || blocks < 0 || blocks > math.MaxInt64/512-lba {
			return fail(ErrTraceRecord, fmt.Sprintf("bad size %q", f[4]))
		}
		if blocks == 0 {
			return fail(ErrTraceZeroExtent, fmt.Sprintf("zero-block request at lba %d", lba))
		}
		op, ok := parseOp(f[5])
		if !ok {
			return fail(ErrTraceOp, fmt.Sprintf("op %q (want R|W)", f[5]))
		}
		disk := 0
		if len(f) >= 8 {
			if minor, err := strconv.Atoi(f[7]); err == nil && minor >= 0 {
				disk = minor
			}
		}
		return record{
			rawNs:     int64(sec * 1e9),
			nsPerUnit: 1,
			host:      f[2], // process name labels the stream
			disk:      disk,
			op:        op,
			offset:    lba * 512,
			bytes:     blocks * 512,
		}, nil
	}
	return fail(ErrTraceFormat, format)
}

func parseOp(s string) (Op, bool) {
	switch s {
	case "Read", "read", "READ", "R", "r":
		return Read, true
	case "Write", "write", "WRITE", "W", "w":
		return Write, true
	}
	return 0, false
}

// Remap folds the trace's source page space into a device's logical
// space of logicalPages, preserving extent contiguity: an extent keeps
// its length and its source alignment modulo the device range. An
// extent longer than the device is a typed error (ErrTraceExtent) in
// strict mode; tolerant mode drops it and counts it in Skipped.
func (t *TimedTrace) Remap(logicalPages int64, tolerant bool) error {
	if logicalPages <= 0 {
		return fmt.Errorf("%w: device has no logical pages", ErrTraceExtent)
	}
	out := t.Reqs[:0]
	var reads, writes int64
	for _, r := range t.Reqs {
		if int64(r.Pages) > logicalPages {
			if !tolerant {
				return fmt.Errorf("%w: %d pages > device %d pages", ErrTraceExtent, r.Pages, logicalPages)
			}
			t.Skipped++
			continue
		}
		if r.LPN+int64(r.Pages) > logicalPages {
			r.LPN %= logicalPages - int64(r.Pages) + 1
		}
		out = append(out, r)
		if r.Op == Read {
			reads++
		} else {
			writes++
		}
	}
	t.Reqs = out
	t.reads, t.writes = reads, writes
	if logicalPages < t.MaxLPN {
		t.MaxLPN = logicalPages
	}
	if len(t.Reqs) == 0 {
		return fmt.Errorf("%w: %q after remap", ErrTraceEmpty, t.Name)
	}
	return nil
}

// ToTrace converts the timed trace into a closed-loop Generator (the
// simple replayable Trace), optionally carrying inter-arrival gaps as
// think times so the replay approximates the source arrival process.
// This is the single-device replay path; the fleet replays TimedTrace
// directly in open loop.
func (t *TimedTrace) ToTrace(withThink bool) *Trace {
	reqs := make([]Request, len(t.Reqs))
	var prev sim.Time
	for i, r := range t.Reqs {
		reqs[i] = Request{Op: r.Op, LPN: r.LPN, Pages: r.Pages}
		if withThink && i > 0 && r.AtNs > prev {
			reqs[i-1].ThinkNs = r.AtNs - prev
		}
		prev = r.AtNs
	}
	return &Trace{name: t.Name, reqs: reqs}
}
