package workload

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// parseInBlocks parses text as trace name with the block size set to
// size.
func parseInBlocks(name string, text []byte, opt TraceOptions, size int) (*TimedTrace, error) {
	defer func(old int) { traceBlockSize = old }(traceBlockSize)
	traceBlockSize = size
	return ParseTimedTrace(name, bytes.NewReader(text), opt)
}

// sameTrace fails t unless (tr, err) is (want, wantErr): the same
// records, sources and counts, or the same error — text, sentinel, line
// and detail.
func sameTrace(t *testing.T, what string, tr *TimedTrace, err error, want *TimedTrace, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, want %v", what, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, want %q", what, err, wantErr)
		}
		for _, s := range traceSentinels {
			if errors.Is(err, s) != errors.Is(wantErr, s) {
				t.Fatalf("%s: error %v, want %v", what, err, wantErr)
			}
		}
		var pe, wantPE *TraceParseError
		if errors.As(err, &pe) != errors.As(wantErr, &wantPE) || pe != nil && *pe != *wantPE {
			t.Fatalf("%s: error %#v, want %#v", what, pe, wantPE)
		}
		return
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("%s: %v (MaxLPN %d, %d sources), want %v (MaxLPN %d, %d sources)",
			what, tr, tr.MaxLPN, len(tr.Sources), want, want.MaxLPN, len(want.Sources))
	}
}

// checkBlocks parses text under opt at every block size in sizes and at
// GOMAXPROCS 1, 2 and 8, and holds each result to the one-block parse
// and, for text under the line bound, to the reference parser.
func checkBlocks(t *testing.T, text []byte, opt TraceOptions, sizes []int) (*TimedTrace, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one, oneErr := parseInBlocks("blocks", text, opt, maxTraceLine)
	if len(text) < maxTraceLine {
		ref, refErr := refParseTimedTrace("blocks", bytes.NewReader(text), opt)
		sameParse(t, opt, one, oneErr, ref, refErr)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, size := range sizes {
			tr, err := parseInBlocks("blocks", text, opt, size)
			sameTrace(t, fmt.Sprintf("%+v, GOMAXPROCS %d, blocks of %d", opt, procs, size), tr, err, one, oneErr)
		}
	}
	return one, oneErr
}

// everySize is every block size from 1 to one past len(text): a block
// boundary after each byte.
func everySize(text []byte) []int {
	sizes := make([]int, len(text)+1)
	for i := range sizes {
		sizes[i] = i + 1
	}
	return sizes
}

// withLines builds a trace text from lines, each ended by eol.
func withLines(eol string, lines ...string) []byte {
	return []byte(strings.Join(lines, eol) + eol)
}

// A trace cut into blocks of any size parses, at any GOMAXPROCS, to the
// trace or the error one block gives, and the reference parser gives.
func TestParseBlocksMatchOneBlock(t *testing.T) {
	big := []int{1, 100, 4096, traceBlockSize}
	strict, tolerant := TraceOptions{}, TraceOptions{Tolerant: true}
	fixture := expandFixture(t, 3)
	fixLines := strings.Split(strings.TrimSuffix(string(fixture), "\n"), "\n")

	t.Run("msr-fixture-x3", func(t *testing.T) {
		for _, opt := range []TraceOptions{strict, tolerant, {Format: FormatMSR, TimeCompression: 20}, {MaxRequests: 1500}} {
			want := 3600
			if opt.MaxRequests > 0 {
				want = opt.MaxRequests
			}
			if tr, err := checkBlocks(t, fixture, opt, big); err != nil || tr.Len() != want {
				t.Fatalf("%+v: %v, %v; want %d records", opt, tr, err, want)
			}
		}
	})
	t.Run("crlf", func(t *testing.T) {
		text := withLines("\r\n", fixLines[:12]...)
		for _, opt := range []TraceOptions{strict, tolerant} {
			if tr, err := checkBlocks(t, text, opt, everySize(text)); err != nil || tr.Len() != 12 {
				t.Fatalf("%+v: %v, %v", opt, tr, err)
			}
		}
	})
	t.Run("blank-and-comments", func(t *testing.T) {
		// Comments and blank lines come before the first record, so it
		// is in a later block than the first.
		text := withLines("\n", "# header", "", "   ", "\t# indented comment", "",
			fixLines[0], "# mid", "", fixLines[1], "  ", fixLines[2], "")
		for _, opt := range []TraceOptions{strict, tolerant, {Format: FormatMSR}} {
			if tr, err := checkBlocks(t, text, opt, everySize(text)); err != nil || tr.Len() != 3 {
				t.Fatalf("%+v: %v, %v", opt, tr, err)
			}
		}
	})
	t.Run("over-long", func(t *testing.T) {
		// Lines of exactly the bound (newline included) parse; one byte
		// more is over-long. A long line under the bound spans blocks.
		comment := func(n int) string { return "#" + strings.Repeat("c", n-2) }
		head := strings.Join(fixLines[:3], "\n")
		tail := strings.Join(fixLines[3:6], "\n")
		for _, tc := range []struct {
			name    string
			text    []byte
			skipped int
			line    int
		}{
			{"at-bound", withLines("\n", head, comment(maxTraceLine), tail), 0, 0},
			{"past-bound", withLines("\n", head, comment(maxTraceLine+1), tail), 1, 4},
			{"far-past", withLines("\n", head, strings.Repeat("j", 3<<20/2), tail), 1, 4},
			{"last-unended", []byte(head + "\n" + strings.Repeat("j", maxTraceLine+1)), 1, 4},
			{"two-past-bound", withLines("\n", head, comment(maxTraceLine+2), "junk", comment(maxTraceLine+1), tail), 3, 4},
			{"under-bound", withLines("\n", head, comment(100<<10), tail), 0, 0},
		} {
			sizes := []int{1, 4096, traceBlockSize, maxTraceLine}
			tr, err := checkBlocks(t, tc.text, tolerant, sizes)
			if err != nil || tr.Skipped != tc.skipped {
				t.Fatalf("%s tolerant: %v, %v; want %d skipped", tc.name, tr, err, tc.skipped)
			}
			_, err = checkBlocks(t, tc.text, strict, sizes)
			var pe *TraceParseError
			if tc.line > 0 && !(errors.As(err, &pe) && errors.Is(err, ErrTraceRecord) && pe.Line == tc.line) {
				t.Fatalf("%s strict: %v, want ErrTraceRecord at line %d", tc.name, err, tc.line)
			}
			if tc.line == 0 && err != nil {
				t.Fatalf("%s strict: %v", tc.name, err)
			}
		}
	})
	t.Run("strict-error", func(t *testing.T) {
		for _, at := range []int{5, 3000} { // in the first block, in a later one
			lines := append(append(append([]string(nil), fixLines[:at-1]...), "128166372003095799,web,2,Read,4096"), fixLines[at-1:]...)
			text := withLines("\n", lines...)
			_, err := checkBlocks(t, text, strict, big)
			var pe *TraceParseError
			if !errors.As(err, &pe) || !errors.Is(err, ErrTraceRecord) || pe.Line != at {
				t.Fatalf("error at line %d: got %v", at, err)
			}
			if tr, err := checkBlocks(t, text, tolerant, big); err != nil || tr.Skipped != 1 || tr.Len() != 3600 {
				t.Fatalf("tolerant, bad line %d: %v, %v", at, tr, err)
			}
		}
	})
	t.Run("out-of-order", func(t *testing.T) {
		// Every block size puts a boundary right before line 9 once.
		lines := append([]string(nil), fixLines[:12]...)
		lines[8] = "100" + lines[8][strings.IndexByte(lines[8], ','):]
		text := withLines("\n", lines...)
		_, err := checkBlocks(t, text, strict, everySize(text))
		var pe *TraceParseError
		if !errors.As(err, &pe) || !errors.Is(err, ErrTraceOutOfOrder) || pe.Line != 9 {
			t.Fatalf("strict: %v, want ErrTraceOutOfOrder at line 9", err)
		}
		if tr, err := checkBlocks(t, text, tolerant, everySize(text)); err != nil || tr.Clamped != 1 || tr.Len() != 12 {
			t.Fatalf("tolerant: %v, %v; want 1 clamped of 12", tr, err)
		}
	})
	t.Run("max-requests", func(t *testing.T) {
		// The bound is reached on line 8; the malformed line 9 after it
		// is never parsed: no error in strict mode, not skipped in
		// tolerant mode. Line 4, before it, is skipped or the error.
		lines := append([]string(nil), fixLines[:12]...)
		lines[8] = "128166372003095799,web,2,Flush,4096,8192,1"
		text := withLines("\n", lines...)
		if tr, err := checkBlocks(t, text, TraceOptions{MaxRequests: 8}, everySize(text)); err != nil || tr.Len() != 8 {
			t.Fatalf("strict: %v, %v; want 8 records and no error", tr, err)
		}
		lines[3] = "junk"
		text = withLines("\n", lines...)
		if tr, err := checkBlocks(t, text, TraceOptions{MaxRequests: 7, Tolerant: true}, everySize(text)); err != nil || tr.Len() != 7 || tr.Skipped != 1 {
			t.Fatalf("tolerant: %v, %v; want 7 records, 1 skipped", tr, err)
		}
		_, err := checkBlocks(t, text, TraceOptions{MaxRequests: 7}, everySize(text))
		var pe *TraceParseError
		if !errors.As(err, &pe) || !errors.Is(err, ErrTraceRecord) || pe.Line != 4 {
			t.Fatalf("strict: %v; want line 4's error", err)
		}
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// A parse that stops early reads at most workers + 2 blocks: a bounded
// sample of a long trace reads no more of it.
func TestParseReadsBoundedBlocks(t *testing.T) {
	text := expandFixture(t, 100)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		cr := &countingReader{r: bytes.NewReader(text)}
		tr, err := ParseTimedTrace("bounded", cr, TraceOptions{MaxRequests: 7})
		if err != nil || tr.Len() != 7 {
			t.Fatalf("GOMAXPROCS %d: %v, %v", procs, tr, err)
		}
		if limit := (procs + 2) * traceBlockSize; cr.n > limit {
			t.Errorf("GOMAXPROCS %d: read %d bytes for 7 records, want <= %d (%d blocks)", procs, cr.n, limit, procs+2)
		}
	}
}

// No goroutine outlives a parse, however it ends.
func TestParseLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	text := expandFixture(t, 10)
	cut := bytes.IndexByte(text[len(text)/2:], '\n') + len(text)/2 + 1
	bad := append(append(append([]byte(nil), text[:cut]...), "garbage\n"...), text[cut:]...)
	boom := errors.New("device gone")
	for _, tc := range []struct {
		name string
		r    io.Reader
		opt  TraceOptions
		want error
	}{
		{"success", bytes.NewReader(text), TraceOptions{}, nil},
		{"strict-error", bytes.NewReader(bad), TraceOptions{}, ErrTraceRecord},
		{"max-requests", bytes.NewReader(text), TraceOptions{MaxRequests: 5000}, nil},
		{"read-error", io.MultiReader(bytes.NewReader(text[:cut]), iotest.ErrReader(boom)), TraceOptions{}, boom},
		{"read-error-mid-line", io.MultiReader(bytes.NewReader(text[:cut-9]), iotest.ErrReader(boom)), TraceOptions{Tolerant: true}, boom},
	} {
		before := runtime.NumGoroutine()
		_, err := ParseTimedTrace(tc.name, tc.r, tc.opt)
		if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.want)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the parse, %d before", tc.name, runtime.NumGoroutine(), before)
			}
		}
	}
}
