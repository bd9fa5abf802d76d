package workload

// Real block-trace ingestion: parsers for the two public trace families
// the storage-systems literature replays most — MSR-Cambridge (SNIA IOTTA,
// Narayanan et al., FAST '08) and the FIU/SyLab traces — feeding the
// fleet replayer and the single-device runners. One byte-level scanner
// serves both formats: it streams lines out of a bufio.Reader's buffer
// (bounded memory per line) and splits and parses their fields in place,
// so a record costs no allocation and keeps nothing of its line but an
// index into the trace's table of origins. It is tolerant when asked
// (malformed lines, over-long ones included, are counted and skipped
// instead of aborting a multi-GB ingest), and returns typed errors in
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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

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
// the origin stream, an index into TimedTrace.Sources, used for tenant
// synthesis. It holds no pointer, so a parsed trace is one flat array
// the garbage collector never scans.
type TimedRequest struct {
	AtNs   sim.Time // arrival, first record = 0, after compression
	LPN    int64    // in source page space (Offset / tracePageBytes)
	Pages  int
	Op     Op
	Source int32 // index into TimedTrace.Sources
}

// Source is one origin stream of a trace.
type Source struct {
	Host string // MSR hostname / FIU process
	Disk int    // MSR disk number / FIU device minor
}

// TimedTrace is a parsed real-world block trace.
type TimedTrace struct {
	Name string
	Reqs []TimedRequest
	// Sources holds each distinct (host, disk) origin once, in order of
	// first appearance.
	Sources []Source

	// Ingestion accounting (tolerant mode).
	Skipped int // malformed records dropped
	Clamped int // out-of-order timestamps clamped to their predecessor

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

// Streams returns the number of distinct (host, disk) origins.
func (t *TimedTrace) Streams() int { return len(t.Sources) }

// String summarizes the trace.
func (t *TimedTrace) String() string {
	return fmt.Sprintf("trace{%s: %d reqs (%d r / %d w), %d streams, span %.3fs, skipped %d, clamped %d}",
		t.Name, len(t.Reqs), t.reads, t.writes, t.Streams(),
		float64(t.SpanNs)/1e9, t.Skipped, t.Clamped)
}

// maxTraceLine bounds one trace line, its newline included. A longer
// line is malformed: skipped in tolerant mode, an ErrTraceRecord in
// strict mode.
const maxTraceLine = 1 << 20

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

	p := traceParser{opt: opt, format: opt.Format, t: &TimedTrace{Name: name},
		ids: map[string]int32{}}
	lr := lineReader{br: bufio.NewReaderSize(r, 64<<10)}
	for {
		line, over, rerr := lr.next()
		if over {
			p.lineNo++
			if !opt.Tolerant {
				return nil, p.fail(ErrTraceRecord, "line longer than %d bytes", maxTraceLine-1)
			}
			p.t.Skipped++
		}
		if len(line) > 0 {
			stop, err := p.line(line)
			if err != nil {
				return nil, err
			}
			if stop {
				break
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, fmt.Errorf("workload: reading trace %q: %w", name, rerr)
		}
	}
	if p.n == 0 {
		return nil, fmt.Errorf("%w: %q", ErrTraceEmpty, name)
	}
	p.t.Reqs = slices.Concat(append(p.full, p.chunk)...)
	return p.t, nil
}

// lineReader yields a trace's lines out of a bufio.Reader's buffer,
// gathering one longer than the buffer into long.
type lineReader struct {
	br   *bufio.Reader
	long []byte
}

// next returns the next line, its newline included, valid until the
// next call. over reports a line longer than maxTraceLine, whose bytes
// are dropped; err is io.EOF after the last line.
func (lr *lineReader) next() (line []byte, over bool, err error) {
	line, err = lr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, false, err
	}
	lr.long = append(lr.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = lr.br.ReadSlice('\n')
		if over = over || len(lr.long)+len(line) > maxTraceLine; !over {
			lr.long = append(lr.long, line...)
		}
	}
	if over {
		return nil, true, err
	}
	return lr.long, false, err
}

// traceParser is ParseTimedTrace's state between lines.
type traceParser struct {
	opt      TraceOptions
	format   string // FormatAuto until the first record is sniffed
	t        *TimedTrace
	lineNo   int
	haveT0   bool
	t0, prev int64 // raw source time

	// Records gather in chunks of doubling size, copied once into
	// t.Reqs at the end: growing one slice would copy a large trace
	// about four times over. n counts them.
	full  [][]TimedRequest
	chunk []TimedRequest
	n     int

	// Source interning: ids maps an 8-byte disk number followed by the
	// host name to its index in t.Sources, and key is the lookup's
	// scratch buffer. last is the previous record's source, tried first:
	// an MSR volume trace has one origin, so a record mostly finds its
	// own without hashing the key.
	ids  map[string]int32
	key  []byte
	last int32
}

// record is one parsed line before page quantization. rawNs is in the
// format's NATIVE time unit (FILETIME 100 ns ticks for MSR, ns for
// FIU); nsPerUnit converts a small delta to ns. Multiplying an absolute
// FILETIME by 100 would overflow int64 (the 1601 epoch sits at ~1.3e17
// ticks), so the conversion is deferred until after t0-subtraction.
type record struct {
	rawNs     int64   // source time in native units (format epoch)
	nsPerUnit float64 // ns per native unit
	host      []byte  // inside the line being parsed
	disk      int
	op        Op
	offset    int64 // bytes
	bytes     int64
}

// fail builds the strict-mode error for the current line.
func (p *traceParser) fail(kind error, format string, args ...any) *TraceParseError {
	return &TraceParseError{Format: p.format, Line: p.lineNo, Detail: fmt.Sprintf(format, args...), kind: kind}
}

// line ingests one raw line, its newline included, and reports whether
// MaxRequests is reached.
func (p *traceParser) line(raw []byte) (stop bool, err error) {
	p.lineNo++
	line := bytes.TrimSpace(raw)
	if len(line) == 0 || line[0] == '#' {
		return false, nil
	}
	if p.format == FormatAuto {
		f := sniffFormat(line)
		if f == "" {
			return false, p.fail(ErrTraceFormat, "cannot identify MSR CSV or FIU record")
		}
		p.format = f
	}
	var (
		rec  record
		perr *TraceParseError
	)
	if p.format == FormatMSR {
		rec, perr = p.parseMSR(line)
	} else {
		rec, perr = p.parseFIU(line)
	}
	if perr != nil {
		if p.opt.Tolerant {
			p.t.Skipped++
			return false, nil
		}
		return false, perr
	}
	if !p.haveT0 {
		p.haveT0, p.t0, p.prev = true, rec.rawNs, rec.rawNs
	}
	if rec.rawNs < p.prev {
		if !p.opt.Tolerant {
			return false, p.fail(ErrTraceOutOfOrder, "timestamp went backwards by %d units", p.prev-rec.rawNs)
		}
		p.t.Clamped++
		rec.rawNs = p.prev
	}
	// Both times are non-negative, so the difference cannot overflow;
	// the scaled arrival can leave the simulated clock's range.
	atNs := float64(rec.rawNs-p.t0) * rec.nsPerUnit / p.opt.TimeCompression
	if !(atNs < math.MaxInt64) {
		if !p.opt.Tolerant {
			return false, p.fail(ErrTraceRecord, "arrival %g ns after the first record is past the simulated clock", atNs)
		}
		p.t.Skipped++
		return false, nil
	}
	p.prev = rec.rawNs
	src, err := p.source(rec.host, rec.disk)
	if err != nil {
		return false, err
	}

	// The extent's last byte is offset+bytes-1 (no overflow: the record
	// parsers keep offset+bytes in range), so it spans at least one page.
	t := p.t
	at := sim.Time(atNs)
	lpn := rec.offset / tracePageBytes
	pages := int((rec.offset+rec.bytes-1)/tracePageBytes - lpn + 1)
	if rec.op == Read {
		t.reads++
	} else {
		t.writes++
	}
	if e := lpn + int64(pages); e > t.MaxLPN {
		t.MaxLPN = e
	}
	t.SpanNs = at
	if len(p.chunk) == cap(p.chunk) {
		if cap(p.chunk) > 0 {
			p.full = append(p.full, p.chunk)
		}
		p.chunk = make([]TimedRequest, 0, min(max(2*cap(p.chunk), 256), 1<<16))
	}
	p.chunk = append(p.chunk, TimedRequest{AtNs: at, LPN: lpn, Pages: pages, Op: rec.op, Source: src})
	p.n++
	return p.opt.MaxRequests > 0 && p.n >= p.opt.MaxRequests, nil
}

// source returns the index of the (host, disk) origin in t.Sources,
// adding it on first sight.
func (p *traceParser) source(host []byte, disk int) (int32, error) {
	if s := p.last; int(s) < len(p.t.Sources) && p.t.Sources[s].Disk == disk && p.t.Sources[s].Host == string(host) {
		return s, nil
	}
	p.key = binary.LittleEndian.AppendUint64(p.key[:0], uint64(disk))
	p.key = append(p.key, host...)
	s, ok := p.ids[string(p.key)]
	if !ok {
		if len(p.t.Sources) == math.MaxInt32 {
			return 0, fmt.Errorf("workload: trace %q has more than %d sources", p.t.Name, math.MaxInt32)
		}
		s = int32(len(p.t.Sources))
		k := string(p.key) // one copy serves the key and the host name
		p.ids[k] = s
		p.t.Sources = append(p.t.Sources, Source{Host: k[8:], Disk: disk})
	}
	p.last = s
	return s, nil
}

// sniffFormat identifies a record line: MSR is comma-separated with 7
// fields, FIU whitespace-separated with 6+.
func sniffFormat(line []byte) string {
	if bytes.Count(line, []byte{','}) >= 6 {
		return FormatMSR
	}
	var f [6][]byte
	if fields(line, f[:]) == len(f) {
		return FormatFIU
	}
	return ""
}

// parseMSR parses a trimmed MSR line: the first six of its seven or
// more comma-separated fields, each trimmed of white space.
func (p *traceParser) parseMSR(line []byte) (record, *TraceParseError) {
	var f [6][]byte
	rest := line
	for i := range f {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			return record{}, p.fail(ErrTraceRecord, "truncated record: %d of 7 fields", i+1)
		}
		f[i], rest = rest[:j], rest[j+1:]
	}
	ticks, ok := atoi(f[0])
	if !ok {
		return record{}, p.fail(ErrTraceRecord, "bad timestamp %q", f[0])
	}
	disk, ok := atoi(f[2])
	if !ok {
		return record{}, p.fail(ErrTraceRecord, "bad disk number %q", f[2])
	}
	op, ok := parseOp(bytes.TrimSpace(f[3]))
	if !ok {
		return record{}, p.fail(ErrTraceOp, "op %q (want Read|Write)", f[3])
	}
	offset, ok := atoi(f[4])
	if !ok {
		return record{}, p.fail(ErrTraceRecord, "bad offset %q", f[4])
	}
	size, ok := atoi(f[5])
	if !ok {
		return record{}, p.fail(ErrTraceRecord, "bad size %q", f[5])
	}
	if size == 0 {
		return record{}, p.fail(ErrTraceZeroExtent, "zero-byte request at offset %d", offset)
	}
	if size > math.MaxInt64-offset {
		return record{}, p.fail(ErrTraceRecord, "extent of %d bytes at offset %d ends past 2^63", size, offset)
	}
	return record{
		rawNs:     ticks, // FILETIME 100 ns ticks; scaled after t0-subtraction
		nsPerUnit: 100,
		host:      bytes.TrimSpace(f[1]),
		disk:      int(disk),
		op:        op,
		offset:    offset,
		bytes:     size,
	}, nil
}

// parseFIU parses a trimmed FIU line: six or more fields separated by
// runs of white space.
func (p *traceParser) parseFIU(line []byte) (record, *TraceParseError) {
	var f [8][]byte
	n := fields(line, f[:])
	if n < 6 {
		return record{}, p.fail(ErrTraceRecord, "truncated record: %d of 6+ fields", n)
	}
	// A timestamp, LBA and size must each fit an int64 once scaled to
	// ns and bytes; NaN fails the first comparison.
	sec, ok := parseSeconds(f[0])
	if !ok || !(sec >= 0 && sec*1e9 < math.MaxInt64) {
		return record{}, p.fail(ErrTraceRecord, "bad timestamp %q", f[0])
	}
	lba, ok := atoi(f[3])
	if !ok || lba > math.MaxInt64/512 {
		return record{}, p.fail(ErrTraceRecord, "bad lba %q", f[3])
	}
	blocks, ok := atoi(f[4])
	if !ok || blocks > math.MaxInt64/512-lba {
		return record{}, p.fail(ErrTraceRecord, "bad size %q", f[4])
	}
	if blocks == 0 {
		return record{}, p.fail(ErrTraceZeroExtent, "zero-block request at lba %d", lba)
	}
	op, ok := parseOp(f[5])
	if !ok {
		return record{}, p.fail(ErrTraceOp, "op %q (want R|W)", f[5])
	}
	disk := int64(0)
	if n == len(f) {
		if minor, ok := atoi(f[7]); ok {
			disk = minor
		}
	}
	return record{
		rawNs:     int64(sec * 1e9),
		nsPerUnit: 1,
		host:      f[2], // process name labels the stream
		disk:      int(disk),
		op:        op,
		offset:    lba * 512,
		bytes:     blocks * 512,
	}, nil
}

// fields fills f with the runs of non-space bytes in b, white space as
// unicode.IsSpace defines it (the split strings.Fields makes), and
// returns how many it filled: at most len(f).
func fields(b []byte, f [][]byte) int {
	n, i := 0, 0
	for ; n < len(f); n++ {
		for i < len(b) {
			sp, w := spaceAt(b[i:])
			if !sp {
				break
			}
			i += w
		}
		if i == len(b) {
			break
		}
		j := i
		for j < len(b) {
			sp, w := spaceAt(b[j:])
			if sp {
				break
			}
			j += w
		}
		f[n], i = b[i:j], j
	}
	return n
}

// spaceAt reports whether b starts with a white-space rune, and the
// rune's width (1 for a byte that is not valid UTF-8).
func spaceAt(b []byte) (bool, int) {
	if c := b[0]; c < utf8.RuneSelf {
		return c == ' ' || '\t' <= c && c <= '\r', 1
	}
	r, w := utf8.DecodeRune(b)
	return unicode.IsSpace(r), w
}

// atoi parses b, trimmed of white space, as strconv.ParseInt(b, 10, 64)
// would and reports whether it holds a non-negative value: an optional
// sign and one or more ASCII digits, at most math.MaxInt64 ("-0" is
// zero).
func atoi(b []byte) (int64, bool) {
	b = bytes.TrimSpace(b)
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg, b = b[0] == '-', b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n int64
	if len(b) > 18 { // past 18 digits a value can overflow
		for _, c := range b {
			d := int64(c) - '0'
			if uint64(d) > 9 || n > (math.MaxInt64-d)/10 {
				return 0, false
			}
			n = n*10 + d
		}
		return n, !neg || n == 0
	}
	// Eight digits at a time: each byte of v must be '0'..'9'; then
	// adjacent lanes are merged into 2-, 4- and 8-digit values.
	const ones, highs = 0x0101010101010101, 0xF0F0F0F0F0F0F0F0
	for ; len(b) >= 8; b = b[8:] {
		v := binary.LittleEndian.Uint64(b)
		if v&highs != 0x30*ones || (v+0x06*ones)&highs != 0x30*ones {
			return 0, false
		}
		v -= 0x30 * ones
		v = (v*10 + v>>8) & 0x00FF00FF00FF00FF
		v = (v*100 + v>>16) & 0x0000FFFF0000FFFF
		v = (v*10000 + v>>32) & 0xFFFFFFFF
		n = n*1e8 + int64(v)
	}
	for _, c := range b {
		d := int64(c) - '0'
		if uint64(d) > 9 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, !neg || n == 0
}

// parseSeconds parses an FIU timestamp as strconv.ParseFloat(b, 64)
// does and reports whether it is valid.
func parseSeconds(b []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(b), 64)
	return f, err == nil
}

func parseOp(b []byte) (Op, bool) {
	switch string(b) {
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
