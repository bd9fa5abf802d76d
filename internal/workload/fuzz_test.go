package workload

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"testing"
)

// FuzzParseTimedTrace feeds any bytes to the block-trace parser under
// every format, strict and tolerant. It must return an error or a trace
// the replayers can take: arrivals that start at 0 and never go back,
// every extent at least one page long at a non-negative LPN.
func FuzzParseTimedTrace(f *testing.F) {
	// Seeds: single lines and short runs of the MSR fixture (its records
	// are at most a few dozen bytes; a long seed spends the fuzzing time
	// minimising), and FIU lines.
	fix, err := os.ReadFile(msrFixture)
	if err != nil {
		f.Fatal(err)
	}
	var lines [][]byte
	for sc := bufio.NewScanner(bytes.NewReader(fix)); sc.Scan() && len(lines) < 6; {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	for i, l := range lines {
		f.Add(l, uint8(i), i%2 == 0)
	}
	f.Add(bytes.Join(lines[1:4], []byte("\n")), uint8(0), false)
	f.Add([]byte("0.5 100 db 2048 16 W 8 1\n0.25 100 db 0 8 R 8 1\n"), uint8(2), true)
	// Two the parser once wrapped: a timestamp and an LBA past int64 once
	// scaled to ns and bytes.
	f.Add([]byte("1e300 1 p 0 1 R\n0 1 p 0 1 R\n"), uint8(2), false)
	f.Add([]byte("0 1 p 18014398509481985 1 R\n"), uint8(2), false)

	formats := []string{FormatAuto, FormatMSR, FormatFIU}
	f.Fuzz(func(t *testing.T, data []byte, format uint8, tolerant bool) {
		opt := TraceOptions{Format: formats[int(format)%len(formats)], Tolerant: tolerant}
		tr, err := ParseTimedTrace("fuzz", bytes.NewReader(data), opt)
		if err != nil {
			return
		}
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
	})
}

// FuzzParseTrace feeds any bytes to the text trace parser. It must
// return an error or a non-empty trace whose every request has LPN >= 0,
// Pages >= 1, ThinkNs >= 0 and an end LPN+Pages that neither overflows
// nor passes MaxLPN.
func FuzzParseTrace(f *testing.F) {
	f.Add([]byte("# c\nr 10 2\nW 100 4 5000\n"))
	f.Add([]byte("w 4611686018427387904 4611686018427387904\n"))
	f.Add([]byte("r 9223372036854775807 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.Len() == 0 {
			t.Fatal("empty trace accepted")
		}
		max := tr.MaxLPN()
		for i, r := range tr.reqs {
			if r.LPN < 0 || r.Pages < 1 || r.ThinkNs < 0 {
				t.Fatalf("request %d: %+v", i, r)
			}
			if int64(r.Pages) > math.MaxInt64-r.LPN || r.LPN+int64(r.Pages) > max {
				t.Fatalf("request %d: lpn %d + %d pages passes MaxLPN %d", i, r.LPN, r.Pages, max)
			}
		}
	})
}
