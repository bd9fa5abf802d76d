package workload

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// FuzzParseTimedTrace feeds any bytes to the block-trace parser, strict
// and tolerant, and to the string-based reference parser it replaced
// (reference_test.go). The two must agree: on the same error (sentinel,
// line and detail), or on the same trace
// (every record with its source's host and disk, Skipped, Clamped,
// streams, MaxLPN and SpanNs). And the trace must be one the replayers
// can take: arrivals that start at 0 and never go back, every extent at
// least one page long at a non-negative LPN. The parser runs twice on
// each input, under GOMAXPROCS 4: at the default block size (one block
// for any input under it) and at the smallest, every line a block of
// its own; both runs must give the same result.
func FuzzParseTimedTrace(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	// Seeds: single lines and short runs of the MSR fixture (its records
	// are at most a few dozen bytes; a long seed spends the fuzzing time
	// minimising), and lines of the FIU grammar, which is not read: each
	// is a malformed record.
	fix, err := os.ReadFile(msrFixture)
	if err != nil {
		f.Fatal(err)
	}
	var lines [][]byte
	for sc := bufio.NewScanner(bytes.NewReader(fix)); sc.Scan() && len(lines) < 6; {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	for _, l := range lines {
		f.Add(l)
	}
	f.Add(bytes.Join(lines[1:4], []byte("\n")))
	f.Add([]byte("0.5 100 db 2048 16 W 8 1\n0.25 100 db 0 8 R 8 1\n"))
	// Two the FIU parser once wrapped: a timestamp and an LBA past int64
	// once scaled to ns and bytes.
	f.Add([]byte("1e300 1 p 0 1 R\n0 1 p 0 1 R\n"))
	f.Add([]byte("0 1 p 18014398509481985 1 R\n"))
	// Spellings the byte scanner must treat as the strings and strconv
	// calls it replaced did: CRLF endings, tabs, signs, 19-digit and
	// overflowing numbers, Unicode spaces around fields, extra commas,
	// and FIU lines whose seconds only strconv converted.
	f.Add([]byte("128166372003095799,web,2,Read,256278528,32768,10946\r\n128166372003159506,usr,0,Write,4050944,8192,4631\r\n"))
	f.Add([]byte("128166372003095799,\tweb\t,2 ,\tRead,256278528\t,32768,1\n0.5\t100\tdb\t2048\t16\tW\t8\t1\n"))
	f.Add([]byte("+128166372003095799,web,+2,Read,+256278528,+32768,1\n-0,web,-0,Write,-0,1,1\n"))
	f.Add([]byte("9223372036854775807,web,2,Read,9223372036854775806,1,1\n9223372036854775808,web,2,Read,0,1,1\n"))
	f.Add([]byte("0000000000000000000000128,web,0000000000000000000002,Read,4096,8192,1\n"))
	f.Add([]byte("\u00a0128166372003095799\u2003,\u3000web\u0085,2\u00a0,Read\u2028,4096,8192,1\n"))
	f.Add([]byte("0.5\u00a0100\u2003db\u3000 2048 16 W 8\u2029\u00851\n"))
	f.Add([]byte("128166372003095799,web,2,Read,256278528,32768,10946,extra,,\n128166372003095800,,,read,0,1,,,,,,\n"))
	f.Add([]byte("1e-3 1 p 0 1 R\n0x1p-2 1 p 0 1 R\n+.5 1 p 0 1 r\n5. 1 p 0 1 w\n0.12345678901234567890 1 p 0 1 W\ninf 1 p 0 1 R\n1_0 1 p 0 1 R\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tolerant := range []bool{false, true} {
			opt := TraceOptions{Tolerant: tolerant}
			tr, err := ParseTimedTrace("fuzz", bytes.NewReader(data), opt)
			lines, linesErr := parseInBlocks("fuzz", data, opt, 1)
			// The reference stops at a line past the 1 MiB bound instead
			// of skipping it; shorter input holds none.
			if len(data) < maxTraceLine {
				ref, refErr := refParseTimedTrace("fuzz", bytes.NewReader(data), opt)
				sameParse(t, opt, tr, err, ref, refErr)
				sameParse(t, opt, lines, linesErr, ref, refErr)
			}
			sameTrace(t, fmt.Sprintf("%+v, a block a line", opt), lines, linesErr, tr, err)
			if err == nil {
				replayable(t, opt, tr)
			}
		}
	})
}

// traceSentinels are the errors a trace parse wraps.
var traceSentinels = []error{ErrTraceEmpty, ErrTraceRecord, ErrTraceOp, ErrTraceZeroExtent, ErrTraceOutOfOrder, ErrTraceExtent, ErrTraceFormat}

// sameParse fails t unless the byte scanner's result (tr, err) is the
// reference parser's (ref, refErr).
func sameParse(t *testing.T, opt TraceOptions, tr *TimedTrace, err error, ref *refTrace, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%+v: error %v, reference %v", opt, err, refErr)
	}
	if err != nil {
		for _, s := range traceSentinels {
			if errors.Is(err, s) != errors.Is(refErr, s) {
				t.Fatalf("%+v: error %v, reference %v", opt, err, refErr)
			}
		}
		var pe, refPE *TraceParseError
		if errors.As(err, &pe) != errors.As(refErr, &refPE) || pe != nil && *pe != *refPE {
			t.Fatalf("%+v: error %#v, reference %#v", opt, pe, refPE)
		}
		return
	}
	if tr.Len() != len(ref.Reqs) || tr.Skipped != ref.Skipped || tr.Clamped != ref.Clamped ||
		tr.Streams() != ref.Streams || tr.MaxLPN != ref.MaxLPN || tr.SpanNs != ref.SpanNs {
		t.Fatalf("%+v: %v (MaxLPN %d), reference %d records, skipped %d, clamped %d, %d streams, MaxLPN %d, span %d",
			opt, tr, tr.MaxLPN, len(ref.Reqs), ref.Skipped, ref.Clamped, ref.Streams, ref.MaxLPN, ref.SpanNs)
	}
	var reads int64
	for i, r := range tr.Reqs {
		src := tr.Sources[r.Source]
		got := refRequest{AtNs: r.AtNs, Host: src.Host, Disk: src.Disk, Op: r.Op, LPN: r.LPN, Pages: r.Pages}
		if got != ref.Reqs[i] {
			t.Fatalf("%+v: record %d is %+v, reference %+v", opt, i, got, ref.Reqs[i])
		}
		if r.Op == Read {
			reads++
		}
	}
	if tr.Reads() != reads || tr.Writes() != int64(tr.Len())-reads {
		t.Fatalf("%+v: %d reads / %d writes counted, %d / %d in the records", opt, tr.Reads(), tr.Writes(), reads, int64(tr.Len())-reads)
	}
}

// replayable fails t unless tr's arrivals start at 0 and never go back
// and every extent is at least one page at a non-negative LPN.
func replayable(t *testing.T, opt TraceOptions, tr *TimedTrace) {
	t.Helper()
	if tr.Len() == 0 || tr.Reqs[0].AtNs != 0 {
		t.Fatalf("%+v: trace of %d records starts at %v", opt, tr.Len(), tr.Reqs)
	}
	for i, r := range tr.Reqs {
		if i > 0 && r.AtNs < tr.Reqs[i-1].AtNs {
			t.Fatalf("%+v: record %d arrives at %d ns, before its predecessor at %d ns", opt, i, r.AtNs, tr.Reqs[i-1].AtNs)
		}
		if r.Pages < 1 || r.LPN < 0 {
			t.Fatalf("%+v: record %d has extent lpn=%d pages=%d", opt, i, r.LPN, r.Pages)
		}
	}
}
