package workload

// Real block-trace ingestion: a parser for the MSR-Cambridge traces
// (SNIA IOTTA, Narayanan et al., FAST '08), the one trace grammar,
// feeding the fleet replayer and the single-device runners. A
// byte-level scanner splits and parses a line's fields in place, so a
// record costs no allocation and keeps nothing of its line but an index
// into the trace's table of origins. The input streams through in
// blocks of whole lines (bounded memory), parsed on every core and
// merged in input order. It is tolerant when asked
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

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
	Line   int // 1-based line number
	Detail string
	kind   error
}

// Error implements error.
func (e *TraceParseError) Error() string {
	return fmt.Sprintf("%v: msr line %d: %s", e.kind, e.Line, e.Detail)
}

// Unwrap exposes the sentinel kind for errors.Is.
func (e *TraceParseError) Unwrap() error { return e.kind }

// FormatMSR names the one trace grammar, MSR-Cambridge CSV.
const FormatMSR = "msr"

// TraceOptions shapes trace ingestion.
type TraceOptions struct {
	// Format names the trace grammar: "" or FormatMSR. Any other value
	// is an ErrTraceFormat.
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
	if o.Format != "" && o.Format != FormatMSR {
		return o, fmt.Errorf("%w: %q (want %s)", ErrTraceFormat, o.Format, FormatMSR)
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
	Host string // MSR hostname
	Disk int    // MSR disk number
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

// traceBlockSize is how many bytes of whole lines ParseTimedTrace cuts
// into one block, a longer line excepted. Tests set it anywhere from 1
// to maxTraceLine to move the block boundaries.
var traceBlockSize = 32 << 10

// ParseTimedTrace ingests an MSR-Cambridge block trace. It cuts
// the input into blocks of whole lines, parses them on up to GOMAXPROCS
// goroutines, and merges them in input order: the trace, or the error,
// is the same whatever GOMAXPROCS is.
func ParseTimedTrace(name string, r io.Reader, opt TraceOptions) (*TimedTrace, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	m := traceMerge{opt: opt, t: &TimedTrace{Name: name}, ids: map[string]int32{}}
	rd := blockReader{r: r, size: traceBlockSize}
	if err := m.ingest(&rd); err != nil {
		return nil, err
	}
	if m.n == 0 {
		return nil, fmt.Errorf("%w: %q", ErrTraceEmpty, name)
	}
	m.t.Reqs = slices.Concat(append(m.full, m.chunk)...)
	return m.t, nil
}

// ingest reads, parses and merges the trace's blocks. A one-block
// trace, or any trace at GOMAXPROCS 1, is parsed on the caller's
// goroutine, block by block. Otherwise GOMAXPROCS-1 workers parse, and
// the caller reads ahead, merges finished blocks in order and, while
// the next one in order is unfinished, parses queued blocks itself, so
// GOMAXPROCS goroutines parse and none waits for a wake-up while work
// is queued. At most GOMAXPROCS+2 blocks are in flight, and the input
// is read no further once the merge stops.
func (m *traceMerge) ingest(rd *blockReader) error {
	var (
		free, pending []*traceBlock
		work          chan *traceBlock
		halt          atomic.Bool
		wg            sync.WaitGroup
	)
	defer func() {
		if work != nil {
			halt.Store(true) // blocks still queued are handed back unparsed
			close(work)
			wg.Wait()
		}
	}()
	procs, ahead := runtime.GOMAXPROCS(0), 1
	for {
		for !rd.done && len(pending) < ahead {
			var b *traceBlock
			if k := len(free); k > 0 {
				b, free = free[k-1], free[:k-1]
			} else {
				b = &traceBlock{done: make(chan struct{}, 1)}
			}
			if !rd.next(b) {
				free = append(free, b)
				break
			}
			if work == nil && procs > 1 && !rd.done {
				// The first block is not the last: parse on workers. The
				// queue holds every block in flight, so a send never
				// blocks.
				work, ahead = make(chan *traceBlock, procs+2), procs+2
				wg.Add(procs - 1)
				for range procs - 1 {
					go func() {
						defer wg.Done()
						for b := range work {
							if !halt.Load() {
								b.parse(m.opt.Tolerant)
							}
							b.done <- struct{}{}
						}
					}()
				}
			}
			if work != nil {
				work <- b
			} else {
				b.parse(m.opt.Tolerant)
			}
			pending = append(pending, b)
		}
		if len(pending) == 0 {
			break
		}
		b := pending[0]
		pending = append(pending[:0], pending[1:]...)
		if work != nil {
			m.await(b, work)
		}
		if stop, err := m.merge(b); stop || err != nil {
			return err
		}
		free = append(free, b)
	}
	if rd.err != nil && rd.err != io.EOF {
		return fmt.Errorf("workload: reading trace %q: %w", m.t.Name, rd.err)
	}
	return nil
}

// await returns once block b is parsed, parsing queued blocks until it is.
func (m *traceMerge) await(b *traceBlock, work chan *traceBlock) {
	for {
		select {
		case <-b.done:
			return
		default:
		}
		select {
		case <-b.done:
			return
		case q := <-work:
			q.parse(m.opt.Tolerant)
			q.done <- struct{}{}
		}
	}
}

// blockReader cuts a trace into blocks of whole lines.
type blockReader struct {
	r     io.Reader
	size  int    // traceBlockSize at the start of the parse
	carry []byte // the partial line after the last cut
	line  int    // lines cut so far
	err   error  // what ended the input: io.EOF or the read error
	done  bool   // no block follows
}

// next cuts the next block into b and reports whether there was one: at
// least size bytes of whole lines (fewer at the end of the input), or
// one longer line, or one line past maxTraceLine, whose bytes are
// dropped. The last line may lack its newline.
func (rd *blockReader) next(b *traceBlock) bool {
	buf := append(b.buf[:0], rd.carry...)
	rd.carry = rd.carry[:0]
	b.text, b.over, b.first = nil, false, rd.line+1
	for want := rd.size; ; want = min(2*want, maxTraceLine+1) {
		buf = rd.fill(buf, want)
		if len(buf) > maxTraceLine && bytes.IndexByte(buf[:maxTraceLine], '\n') < 0 {
			b.over = true
			rd.skipLine(buf)
			break
		}
		if rd.err != nil {
			rd.done = true
			if len(buf) == 0 {
				b.buf = buf
				return false
			}
			b.text = buf
			break
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			rd.carry = append(rd.carry, buf[i+1:]...)
			b.text = buf[:i+1]
			break
		}
	}
	b.buf = buf
	if b.over {
		rd.line++
		return true
	}
	rd.line += bytes.Count(b.text, []byte{'\n'})
	if b.text[len(b.text)-1] != '\n' {
		rd.line++
	}
	return true
}

// fill reads into buf until it holds want bytes or the input ends, and
// gives up after 100 reads in a row that return nothing, as a
// bufio.Reader does.
func (rd *blockReader) fill(buf []byte, want int) []byte {
	buf = slices.Grow(buf, max(0, want-len(buf)))
	for empty := 0; len(buf) < want && rd.err == nil; {
		n, err := rd.r.Read(buf[len(buf):want])
		buf = buf[:len(buf)+n]
		switch {
		case err != nil:
			rd.err = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				rd.err = io.ErrNoProgress
			}
		}
	}
	return buf
}

// skipLine drops the over-long line buf starts with, up to its newline
// or the end of the input, and carries what follows it. Like every read,
// it takes at most maxTraceLine+1 bytes at once, so no line but a
// block's first can pass the bound.
func (rd *blockReader) skipLine(buf []byte) {
	for {
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			rd.carry = append(rd.carry, buf[i+1:]...)
			return
		}
		if rd.err != nil {
			rd.done = true
			return
		}
		buf = rd.fill(buf[:0], maxTraceLine+1)
	}
}

// cutLine splits text after its first newline, or at its end.
func cutLine(text []byte) (line, rest []byte) {
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		return text[:i+1], text[i+1:]
	}
	return text, nil
}

// traceBlock is one block of a trace on its way through ParseTimedTrace:
// the lines the reader cut, then what the parse made of them. A parse
// recycles its blocks.
type traceBlock struct {
	buf   []byte
	text  []byte // whole lines, in buf
	over  bool   // the block is one line past maxTraceLine, its bytes dropped
	first int    // number of the block's first line

	// The parse's output: the records in line order, their origins, the
	// malformed lines dropped (tolerant), and the first one that fails
	// the parse (strict). line is the number of the line being parsed.
	recs    []rawRecord
	src     blockSources
	skipped int
	err     *TraceParseError
	line    int

	done chan struct{} // a worker's signal that the parse is over
}

// rawRecord is one record as a block's parse leaves it for the merge: its
// source time in FILETIME ticks, its extent in pages, its
// origin among the block's sources, its line's offset from the block's
// first, and how many malformed lines the block dropped before it. It
// holds no pointer.
type rawRecord struct {
	ticks int64
	lpn   int64
	pages int
	op    Op
	src   int32
	line  int32
	skips int32
}

// fail builds the strict-mode error for the line being parsed.
func (b *traceBlock) fail(kind error, format string, args ...any) *TraceParseError {
	return &TraceParseError{Line: b.line, Detail: fmt.Sprintf(format, args...), kind: kind}
}

// parse runs the line scanner over the block, up to the first line that
// fails the parse. What depends on earlier blocks is the merge's.
func (b *traceBlock) parse(tolerant bool) {
	b.recs, b.skipped, b.err, b.line = b.recs[:0], 0, nil, b.first
	b.src.reset()
	if b.over {
		if !tolerant {
			b.err = b.fail(ErrTraceRecord, "line longer than %d bytes", maxTraceLine-1)
		} else {
			b.skipped = 1
		}
		return
	}
	for text := b.text; len(text) > 0; b.line++ {
		var line []byte
		line, text = cutLine(text)
		if line = bytes.TrimSpace(line); len(line) == 0 || line[0] == '#' {
			continue
		}
		rec, perr := b.parseMSR(line)
		if perr != nil {
			if !tolerant {
				b.err = perr
				return
			}
			b.skipped++
			continue
		}
		// The extent's last byte is offset+bytes-1 (no overflow: the
		// record parser keeps offset+bytes in range), so it spans at
		// least one page.
		lpn := rec.offset / tracePageBytes
		b.recs = append(b.recs, rawRecord{
			ticks: rec.ticks,
			lpn:   lpn,
			pages: int((rec.offset+rec.bytes-1)/tracePageBytes - lpn + 1),
			op:    rec.op,
			src:   b.src.intern(rec.host, rec.disk),
			line:  int32(b.line - b.first),
			skips: int32(b.skipped),
		})
	}
}

// blockSources interns a block's (host, disk) origins in order of first
// appearance, allocating nothing once its slices have grown (a Go map,
// emptied for each block, would allocate a key string per origin per
// block: more than TestParseTimedTraceAllocs allows on the fixture's
// twelve interleaved origins). Origin i
// has host name hosts[ends[i-1]:ends[i]] and disk number disks[i];
// slots is an open-addressed table of origin indices plus one (0 =
// empty), at most half full and indexed by the top bits of a seeded
// hash, probed behind a one-entry cache of the previous record's origin.
type blockSources struct {
	hosts []byte
	ends  []int32
	disks []int
	slots []int32
	shift uint // 64 - log2(len(slots))
	last  int32
	seed  maphash.Seed
}

func (s *blockSources) reset() {
	s.hosts, s.ends, s.disks, s.last = s.hosts[:0], s.ends[:0], s.disks[:0], -1
	clear(s.slots)
}

// host returns origin i's host name.
func (s *blockSources) host(i int32) []byte {
	start := int32(0)
	if i > 0 {
		start = s.ends[i-1]
	}
	return s.hosts[start:s.ends[i]]
}

// is reports whether origin i is (host, disk).
func (s *blockSources) is(i int32, host []byte, disk int) bool {
	return s.disks[i] == disk && string(s.host(i)) == string(host)
}

// slot returns the first slot to probe for the (host, disk) origin.
func (s *blockSources) slot(host []byte, disk int) int {
	return int((maphash.Bytes(s.seed, host) ^ uint64(disk)) * 0x9E3779B97F4A7C15 >> s.shift)
}

// intern returns the index of the (host, disk) origin, adding it on
// first sight.
func (s *blockSources) intern(host []byte, disk int) int32 {
	if s.last >= 0 && s.is(s.last, host, disk) {
		return s.last
	}
	if 2*(len(s.ends)+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for h := s.slot(host, disk); ; h = (h + 1) & mask {
		i := s.slots[h] - 1
		if i < 0 {
			s.hosts = append(s.hosts, host...)
			s.ends = append(s.ends, int32(len(s.hosts)))
			s.disks = append(s.disks, disk)
			i = int32(len(s.ends) - 1)
			s.slots[h] = i + 1
		} else if !s.is(i, host, disk) {
			continue
		}
		s.last = i
		return i
	}
}

// grow doubles the slot table (16 at first) and reinserts every origin.
func (s *blockSources) grow() {
	if s.slots == nil {
		s.seed = maphash.MakeSeed()
	}
	s.slots = make([]int32, max(16, 2*len(s.slots)))
	s.shift = uint(64 - bits.TrailingZeros(uint(len(s.slots))))
	mask := len(s.slots) - 1
	for i := range int32(len(s.ends)) {
		h := s.slot(s.host(i), s.disks[i])
		for s.slots[h] != 0 {
			h = (h + 1) & mask
		}
		s.slots[h] = i + 1
	}
}

// traceMerge is ParseTimedTrace's state between blocks: everything that
// depends on earlier lines.
type traceMerge struct {
	opt      TraceOptions
	t        *TimedTrace
	haveT0   bool
	t0, prev int64 // raw source time

	// Records gather in chunks of doubling size, copied once into
	// t.Reqs at the end: growing one slice would copy a large trace
	// about four times over. n counts them.
	full  [][]TimedRequest
	chunk []TimedRequest
	n     int

	// Source interning: ids maps an 8-byte little-endian disk number
	// followed by the host name to the origin's index in t.Sources, key
	// is the lookup's scratch, and remap maps a block's origins to
	// theirs, -1 until the block's first record from the origin is kept.
	ids   map[string]int32
	key   []byte
	remap []int32
}

// merge appends a parsed block's records to the trace, in order, and
// reports whether MaxRequests is reached. It places each in time — the
// first record's time is zero, an earlier one than its predecessor's is
// an error or clamped, a gap is compressed and must stay on the
// simulated clock — and names its origin in t.Sources. An error is the
// one at the lowest line: a record's, or the block's own.
func (m *traceMerge) merge(b *traceBlock) (stop bool, err error) {
	m.remap = slices.Grow(m.remap[:0], len(b.src.ends))[:len(b.src.ends)]
	for i := range m.remap {
		m.remap[i] = -1
	}
	t := m.t
	for i := range b.recs {
		r := &b.recs[i]
		raw := r.ticks
		if !m.haveT0 {
			m.haveT0, m.t0, m.prev = true, raw, raw
		}
		if raw < m.prev {
			if !m.opt.Tolerant {
				return false, m.fail(b, r, ErrTraceOutOfOrder, "timestamp went backwards by %d units", m.prev-raw)
			}
			t.Clamped++
			raw = m.prev
		}
		// Both times are non-negative, so the difference cannot
		// overflow; the scaled arrival can leave the simulated clock's
		// range. Multiplying an absolute FILETIME by 100 (ns per tick)
		// would overflow int64, so only the difference is scaled.
		atNs := float64(raw-m.t0) * 100 / m.opt.TimeCompression
		if !(atNs < math.MaxInt64) {
			if !m.opt.Tolerant {
				return false, m.fail(b, r, ErrTraceRecord, "arrival %g ns after the first record is past the simulated clock", atNs)
			}
			t.Skipped++
			continue
		}
		m.prev = raw
		src := m.remap[r.src]
		if src < 0 {
			if src, err = m.source(b.src.host(r.src), b.src.disks[r.src]); err != nil {
				return false, err
			}
			m.remap[r.src] = src
		}

		at := sim.Time(atNs)
		if r.op == Read {
			t.reads++
		} else {
			t.writes++
		}
		if e := r.lpn + int64(r.pages); e > t.MaxLPN {
			t.MaxLPN = e
		}
		t.SpanNs = at
		if len(m.chunk) == cap(m.chunk) {
			if cap(m.chunk) > 0 {
				m.full = append(m.full, m.chunk)
			}
			m.chunk = make([]TimedRequest, 0, min(max(2*cap(m.chunk), 256), 1<<16))
		}
		m.chunk = append(m.chunk, TimedRequest{AtNs: at, LPN: r.lpn, Pages: r.pages, Op: r.op, Source: src})
		m.n++
		if m.opt.MaxRequests > 0 && m.n >= m.opt.MaxRequests {
			t.Skipped += int(r.skips) // the lines past this one are not read
			return true, nil
		}
	}
	t.Skipped += b.skipped
	if b.err != nil {
		return false, b.err
	}
	return false, nil
}

// fail builds the strict-mode error for record r of block b.
func (m *traceMerge) fail(b *traceBlock, r *rawRecord, kind error, format string, args ...any) *TraceParseError {
	return &TraceParseError{Line: b.first + int(r.line), Detail: fmt.Sprintf(format, args...), kind: kind}
}

// source returns the index in t.Sources of the (host, disk) origin,
// adding it on first sight.
func (m *traceMerge) source(host []byte, disk int) (int32, error) {
	m.key = binary.LittleEndian.AppendUint64(m.key[:0], uint64(disk))
	m.key = append(m.key, host...)
	if s, ok := m.ids[string(m.key)]; ok {
		return s, nil
	}
	if len(m.t.Sources) == math.MaxInt32 {
		return 0, fmt.Errorf("workload: trace %q has more than %d sources", m.t.Name, math.MaxInt32)
	}
	s := int32(len(m.t.Sources))
	k := string(m.key) // one copy serves the key and the host name
	m.ids[k] = s
	m.t.Sources = append(m.t.Sources, Source{Host: k[8:], Disk: disk})
	return s, nil
}

// record is one parsed line before page quantization.
type record struct {
	ticks  int64  // source time in FILETIME 100 ns ticks
	host   []byte // inside the line being parsed
	disk   int
	op     Op
	offset int64 // bytes
	bytes  int64
}

// parseMSR parses a trimmed MSR line: the first six of its seven or
// more comma-separated fields, each trimmed of white space.
func (b *traceBlock) parseMSR(line []byte) (record, *TraceParseError) {
	var f [6][]byte
	rest := line
	for i := range f {
		j := bytes.IndexByte(rest, ',')
		if j < 0 {
			return record{}, b.fail(ErrTraceRecord, "truncated record: %d of 7 fields", i+1)
		}
		f[i], rest = rest[:j], rest[j+1:]
	}
	ticks, ok := atoi(f[0])
	if !ok {
		return record{}, b.fail(ErrTraceRecord, "bad timestamp %q", f[0])
	}
	disk, ok := atoi(f[2])
	if !ok {
		return record{}, b.fail(ErrTraceRecord, "bad disk number %q", f[2])
	}
	op, ok := parseOp(bytes.TrimSpace(f[3]))
	if !ok {
		return record{}, b.fail(ErrTraceOp, "op %q (want Read|Write)", f[3])
	}
	offset, ok := atoi(f[4])
	if !ok {
		return record{}, b.fail(ErrTraceRecord, "bad offset %q", f[4])
	}
	size, ok := atoi(f[5])
	if !ok {
		return record{}, b.fail(ErrTraceRecord, "bad size %q", f[5])
	}
	if size == 0 {
		return record{}, b.fail(ErrTraceZeroExtent, "zero-byte request at offset %d", offset)
	}
	if size > math.MaxInt64-offset {
		return record{}, b.fail(ErrTraceRecord, "extent of %d bytes at offset %d ends past 2^63", size, offset)
	}
	return record{
		ticks:  ticks,
		host:   bytes.TrimSpace(f[1]),
		disk:   int(disk),
		op:     op,
		offset: offset,
		bytes:  size,
	}, nil
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

// WriteMSR records the next n requests of gen to w as MSR-Cambridge
// CSV, the grammar ParseTimedTrace reads back: host gen.Name(), disk 0,
// extents in whole pages, and a timestamp that advances only at a burst
// pause — the running sum of the ThinkNs of the requests before, in
// FILETIME ticks from 0.
func WriteMSR(w io.Writer, gen Generator, n int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# cubeftl trace: %s, %d requests\n", gen.Name(), n)
	var at sim.Time
	for range n {
		r := gen.Next()
		op := "Read"
		if r.Op == Write {
			op = "Write"
		}
		fmt.Fprintf(bw, "%d,%s,0,%s,%d,%d,0\n", at/100, gen.Name(), op, r.LPN*tracePageBytes, int64(r.Pages)*tracePageBytes)
		at += r.ThinkNs
	}
	return bw.Flush()
}
