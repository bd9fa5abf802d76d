package workload

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"cubeftl/internal/sim"
)

const msrFixture = "testdata/msr_sample.csv"

func parseFixture(t *testing.T, opt TraceOptions) *TimedTrace {
	t.Helper()
	f, err := os.Open(msrFixture)
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	tr, err := ParseTimedTrace("msr_sample", f, opt)
	if err != nil {
		t.Fatalf("ParseTimedTrace: %v", err)
	}
	return tr
}

func TestParseMSRFixture(t *testing.T) {
	tr := parseFixture(t, TraceOptions{})
	if tr.Len() != 1200 {
		t.Errorf("records = %d, want 1200", tr.Len())
	}
	if tr.Skipped != 0 || tr.Clamped != 0 {
		t.Errorf("clean fixture skipped %d / clamped %d", tr.Skipped, tr.Clamped)
	}
	if tr.Reads() == 0 || tr.Writes() == 0 {
		t.Errorf("want both ops present: %d r / %d w", tr.Reads(), tr.Writes())
	}
	if tr.Reads()+tr.Writes() != int64(tr.Len()) {
		t.Errorf("op counts %d+%d != %d", tr.Reads(), tr.Writes(), tr.Len())
	}
	if tr.Streams() < 4 {
		t.Errorf("streams = %d, want >= 4 (hosts x disks)", tr.Streams())
	}
	if tr.Reqs[0].AtNs != 0 {
		t.Errorf("first arrival = %d, want 0 (normalized)", tr.Reqs[0].AtNs)
	}
	var prev int64 = -1
	for i, r := range tr.Reqs {
		if r.AtNs < prev {
			t.Fatalf("record %d: arrival went backwards", i)
		}
		prev = r.AtNs
		if r.Pages < 1 || r.LPN < 0 {
			t.Fatalf("record %d: bad extent lpn=%d pages=%d", i, r.LPN, r.Pages)
		}
	}
	if tr.SpanNs <= 0 {
		t.Errorf("span = %d, want > 0", tr.SpanNs)
	}
}

func TestTimeCompression(t *testing.T) {
	full := parseFixture(t, TraceOptions{})
	tenth := parseFixture(t, TraceOptions{TimeCompression: 10})
	if tenth.SpanNs >= full.SpanNs {
		t.Fatalf("compressed span %d >= full span %d", tenth.SpanNs, full.SpanNs)
	}
	ratio := float64(full.SpanNs) / float64(tenth.SpanNs)
	if ratio < 9.9 || ratio > 10.1 {
		t.Errorf("compression ratio = %.3f, want ~10", ratio)
	}
}

func TestParseMSRStrictErrors(t *testing.T) {
	const good = "128166372003061629,usr,0,Read,4096,8192,100\n"
	cases := []struct {
		name string
		line string
		want error
	}{
		{"truncated", "128166372003061729,usr,0,Read,4096\n", ErrTraceRecord},
		{"bad-timestamp", "xyz,usr,0,Read,4096,8192,100\n", ErrTraceRecord},
		{"bad-disk", "128166372003061729,usr,q,Read,4096,8192,100\n", ErrTraceRecord},
		{"bad-op", "128166372003061729,usr,0,Flush,4096,8192,100\n", ErrTraceOp},
		{"bad-offset", "128166372003061729,usr,0,Read,-9,8192,100\n", ErrTraceRecord},
		{"bad-size", "128166372003061729,usr,0,Read,4096,none,100\n", ErrTraceRecord},
		{"zero-length", "128166372003061729,usr,0,Read,4096,0,100\n", ErrTraceZeroExtent},
		{"out-of-order", "100,usr,0,Read,4096,8192,100\n", ErrTraceOutOfOrder},
		{"over-long", strings.Repeat("x", 2<<20) + "\n", ErrTraceRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTimedTrace(tc.name, strings.NewReader(good+tc.line), TraceOptions{Format: FormatMSR})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			var pe *TraceParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *TraceParseError", err)
			}
			if pe.Line != 2 {
				t.Errorf("line = %d, want 2", pe.Line)
			}
		})
	}
}

func TestParseTolerantSkipsAndClamps(t *testing.T) {
	in := "128166372003061629,usr,0,Read,4096,8192,100\n" +
		"garbage line that is not a record\n" + // skipped
		"128166372003061929,usr,0,Flush,4096,8192,100\n" + // bad op: skipped
		strings.Repeat("j", 2<<20) + "\n" + // past the line bound: skipped
		"100,usr,0,Write,8192,4096,100\n" + // out of order: clamped
		"128166372003062929,usr,0,Write,16384,4096,100\n"
	tr, err := ParseTimedTrace("tolerant", strings.NewReader(in), TraceOptions{Tolerant: true})
	if err != nil {
		t.Fatalf("tolerant parse failed: %v", err)
	}
	if tr.Len() != 3 {
		t.Errorf("records = %d, want 3", tr.Len())
	}
	if tr.Skipped != 3 {
		t.Errorf("skipped = %d, want 3", tr.Skipped)
	}
	if tr.Clamped != 1 {
		t.Errorf("clamped = %d, want 1", tr.Clamped)
	}
	// The clamped record must not go backwards.
	if tr.Reqs[1].AtNs != tr.Reqs[0].AtNs {
		t.Errorf("clamped arrival = %d, want %d", tr.Reqs[1].AtNs, tr.Reqs[0].AtNs)
	}
}

func TestParseEmptyTrace(t *testing.T) {
	for name, in := range map[string]string{
		"empty-file":    "",
		"only-comments": "# header\n\n# another\n",
	} {
		_, err := ParseTimedTrace(name, strings.NewReader(in), TraceOptions{})
		if !errors.Is(err, ErrTraceEmpty) {
			t.Errorf("%s: got %v, want ErrTraceEmpty", name, err)
		}
		_, err = ParseTimedTrace(name, strings.NewReader(in), TraceOptions{Tolerant: true})
		if !errors.Is(err, ErrTraceEmpty) {
			t.Errorf("%s tolerant: got %v, want ErrTraceEmpty", name, err)
		}
	}
}

func TestParseFIU(t *testing.T) {
	in := "0.000100 1234 postmark 2048 8 W 8 1 ab12\n" +
		"0.000900 1234 postmark 2048 8 R 8 1 ab12\n" +
		"0.002000 77 find 900000 16 R 8 2 ffee\n"
	tr, err := ParseTimedTrace("fiu", strings.NewReader(in), TraceOptions{})
	if err != nil {
		t.Fatalf("FIU parse: %v", err)
	}
	if tr.Len() != 3 {
		t.Fatalf("records = %d, want 3", tr.Len())
	}
	r0 := tr.Reqs[0]
	if src := tr.Sources[r0.Source]; r0.Op != Write || src != (Source{Host: "postmark", Disk: 1}) {
		t.Errorf("r0 = %+v from %+v, want write/postmark/disk1", r0, src)
	}
	// lba 2048 * 512 = 1 MiB offset = page 64 at 16 KiB; 8 blocks = 4 KiB -> 1 page.
	if r0.LPN != 64 || r0.Pages != 1 {
		t.Errorf("r0 extent = (%d, %d), want (64, 1)", r0.LPN, r0.Pages)
	}
	if tr.Reqs[1].AtNs != 800_000 {
		t.Errorf("arrival = %d ns, want 800000 (0.0008 s)", tr.Reqs[1].AtNs)
	}
	if tr.Streams() != 2 {
		t.Errorf("streams = %d, want 2", tr.Streams())
	}
}

func TestSniffRejectsUnknown(t *testing.T) {
	_, err := ParseTimedTrace("mystery", strings.NewReader("one two three\n"), TraceOptions{})
	if !errors.Is(err, ErrTraceFormat) {
		t.Errorf("got %v, want ErrTraceFormat", err)
	}
	_, err = ParseTimedTrace("badfmt", strings.NewReader(""), TraceOptions{Format: "blktrace"})
	if !errors.Is(err, ErrTraceFormat) {
		t.Errorf("explicit bad format: got %v, want ErrTraceFormat", err)
	}
}

func TestRemap(t *testing.T) {
	in := "128166372003061629,usr,0,Read,0,16384,100\n" + // page 0, 1 page
		"128166372003062629,usr,0,Write,163840000,32768,100\n" + // far page, 2 pages
		"128166372003063629,usr,0,Read,0,163840000,100\n" // 10000-page monster
	tr, err := ParseTimedTrace("remap", strings.NewReader(in), TraceOptions{})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Strict: the 10000-page extent cannot fit a 64-page device.
	if err := tr.Remap(64, false); !errors.Is(err, ErrTraceExtent) {
		t.Fatalf("strict remap: got %v, want ErrTraceExtent", err)
	}
	// Tolerant: the monster is dropped, the rest folded into range.
	tr2, _ := ParseTimedTrace("remap", strings.NewReader(in), TraceOptions{})
	if err := tr2.Remap(64, true); err != nil {
		t.Fatalf("tolerant remap: %v", err)
	}
	if tr2.Len() != 2 || tr2.Skipped != 1 {
		t.Fatalf("tolerant remap kept %d, skipped %d; want 2, 1", tr2.Len(), tr2.Skipped)
	}
	for i, r := range tr2.Reqs {
		if r.LPN < 0 || r.LPN+int64(r.Pages) > 64 {
			t.Errorf("record %d extent (%d, %d) outside device", i, r.LPN, r.Pages)
		}
	}
	if tr2.Reads() != 1 || tr2.Writes() != 1 {
		t.Errorf("post-remap op counts %d r / %d w, want 1/1", tr2.Reads(), tr2.Writes())
	}
	// Fully out-of-range trace must not silently become empty.
	tr3, _ := ParseTimedTrace("remap", strings.NewReader("128166372003061629,usr,0,Read,0,163840000,100\n"), TraceOptions{})
	if err := tr3.Remap(64, true); !errors.Is(err, ErrTraceEmpty) {
		t.Errorf("all-dropped remap: got %v, want ErrTraceEmpty", err)
	}
}

func TestParseMaxRequests(t *testing.T) {
	tr := parseFixture(t, TraceOptions{MaxRequests: 7})
	if tr.Len() != 7 {
		t.Errorf("bounded parse kept %d, want 7", tr.Len())
	}
}

// expandFixture concatenates passes copies of the MSR fixture, each
// shifted in time to follow the previous one.
func expandFixture(t testing.TB, passes int) []byte {
	t.Helper()
	fix, err := os.ReadFile(msrFixture)
	if err != nil {
		t.Fatal(err)
	}
	var ticks []int64
	var rests []string
	for _, line := range strings.Split(string(fix), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		comma := strings.IndexByte(line, ',')
		n, err := strconv.ParseInt(line[:comma], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		ticks, rests = append(ticks, n), append(rests, line[comma:])
	}
	stride := ticks[len(ticks)-1] - ticks[0] + 1
	var out bytes.Buffer
	for p := 0; p < passes; p++ {
		for i, n := range ticks {
			out.WriteString(strconv.FormatInt(n+int64(p)*stride, 10))
			out.WriteString(rests[i])
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

// A further record costs no allocation: parsing the fixture 100 times
// over allocates no more per record than parsing it 10 times, but for
// the record slice's growth. An FIU trace of as many records, whose
// seconds strconv.ParseFloat converts, holds to the same bound.
func TestParseTimedTraceAllocs(t *testing.T) {
	for _, tc := range []struct {
		format string
		text   func(passes int) []byte
	}{
		{FormatMSR, func(passes int) []byte { return expandFixture(t, passes) }},
		{FormatFIU, fiuText},
	} {
		mallocs := func(passes int) (uint64, int) {
			text := tc.text(passes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := ParseTimedTrace("allocs", bytes.NewReader(text), TraceOptions{Format: tc.format})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.Mallocs - before.Mallocs, tr.Len()
		}
		warm, warmRecs := mallocs(10)
		more, moreRecs := mallocs(100)
		perRec := (float64(more) - float64(warm)) / float64(moreRecs-warmRecs)
		t.Logf("%s: %d allocations for %d records, %d for %d: %.4f per further record",
			tc.format, warm, warmRecs, more, moreRecs, perRec)
		if perRec > 0.01 {
			t.Errorf("%s: a further record costs %.4f allocations, want <= 0.01", tc.format, perRec)
		}
	}
}

// fiuText is an FIU trace of 1 200 records per pass from four
// processes, its timestamps microseconds apart.
func fiuText(passes int) []byte {
	var out []byte
	for i := 0; i < passes*1200; i++ {
		op := "W"
		if i%3 == 0 {
			op = "R"
		}
		out = fmt.Appendf(out, "%d.%06d %d proc%d %d %d %s 8 %d\n",
			i/1000000, i%1000000, 100+i%4, i%4, int64(i)*64, 8+i%3*8, op, i%4)
	}
	return out
}

// A parsed trace is one flat array: a record holds no pointer for the
// garbage collector to scan, and at most 40 bytes.
func TestTimedRequestLayout(t *testing.T) {
	typ := reflect.TypeOf(TimedRequest{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Float32, reflect.Float64:
		default:
			t.Errorf("TimedRequest.%s is a %s, which may hold a pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(TimedRequest{}); size > 40 {
		t.Errorf("TimedRequest is %d bytes, want <= 40", size)
	}
}

// BenchmarkParseTimedTrace parses the MSR fixture, and the fixture
// copied 100 times over.
func BenchmarkParseTimedTrace(b *testing.B) {
	for _, passes := range []int{1, 100} {
		text := expandFixture(b, passes)
		b.Run("x"+strconv.Itoa(passes), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			records := 0
			for i := 0; i < b.N; i++ {
				tr, err := ParseTimedTrace("bench", bytes.NewReader(text), TraceOptions{Format: FormatMSR})
				if err != nil {
					b.Fatal(err)
				}
				records += tr.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/rec")
		})
	}
}

// The byte scanner's integer parser accepts what strconv accepts, with
// the same value: atoi the non-negative results of ParseInt on the
// trimmed field.
func TestNumberParsersMatchStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "+0", "7", "+7", "-7", "12345678", "123456789", "128166372003095799",
		"922337203685477580", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"0000000000000000000000000042", "99999999999999999999", "1_000", "0x10", "1e3", "", "+", "-", "--1",
		"12a45678", "1234567/", "1234567:", " 1", "1 ", "\u00a012\u3000", "1 2", "\t", "١٢",
	} {
		want, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		wantOK := err == nil && want >= 0
		if got, ok := atoi([]byte(s)); ok != wantOK || ok && got != want {
			t.Errorf("atoi(%q) = %d, %v; strconv %d, %v", s, got, ok, want, wantOK)
		}
	}
}

// TestTraceRoundTrip records a bursty stream with WriteMSR and parses it
// back: the same op / LPN / pages sequence, one origin, and arrivals
// that move only at a burst pause, by exactly the pause.
func TestTraceRoundTrip(t *testing.T) {
	const n = 500 // Rocks pauses after every 160th request
	var buf bytes.Buffer
	if err := WriteMSR(&buf, NewStream(Rocks, 50000, 13), n); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTimedTrace("rocks-replay", &buf, TraceOptions{Format: FormatMSR})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n || tr.Streams() != 1 || tr.Sources[0].Host != "Rocks" {
		t.Fatalf("parsed %v, sources %v", tr, tr.Sources)
	}
	gen := NewStream(Rocks, 50000, 13)
	var at sim.Time
	pauses := 0
	for i, got := range tr.Reqs {
		want := gen.Next()
		if got.Op != want.Op || got.LPN != want.LPN || got.Pages != want.Pages || got.AtNs != at {
			t.Fatalf("record %d: got %+v, want %+v arriving at %d ns", i, got, want, at)
		}
		if want.ThinkNs > 0 {
			pauses++
		}
		at += want.ThinkNs
	}
	if pauses != n/Rocks.BurstLen {
		t.Errorf("%d burst pauses in %d requests, want %d", pauses, n, n/Rocks.BurstLen)
	}
}
