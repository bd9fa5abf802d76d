package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	gen := NewStream(Rocks, 50000, 13)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 500); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTrace("rocks-replay", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	// Replaying reproduces the identical sequence.
	gen2 := NewStream(Rocks, 50000, 13)
	for i := 0; i < 500; i++ {
		want := gen2.Next()
		got := tr.Next()
		if got != want {
			t.Fatalf("request %d: got %+v want %+v", i, got, want)
		}
	}
	// Wrap-around.
	gen3 := NewStream(Rocks, 50000, 13)
	if got, want := tr.Next(), gen3.Next(); got != want {
		t.Fatalf("wrap: got %+v want %+v", got, want)
	}
	tr.pos = 0 // rewind
	if got, want := tr.Next(), NewStream(Rocks, 50000, 13).Next(); got != want {
		t.Fatal("rewind did not restart")
	}
}

func TestTraceMaxLPN(t *testing.T) {
	tr, err := ParseTrace("t", strings.NewReader("r 10 2\nw 100 4\nr 5 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxLPN() != 104 {
		t.Errorf("MaxLPN = %d", tr.MaxLPN())
	}
}

func TestTraceParsingTolerance(t *testing.T) {
	in := "# comment\n\nR 1 1\nW 2 3 5000\n  \n"
	tr, err := ParseTrace("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	r := tr.Next()
	if r.Op != Read || r.LPN != 1 {
		t.Errorf("first = %+v", r)
	}
	w := tr.Next()
	if w.Op != Write || w.ThinkNs != 5000 {
		t.Errorf("second = %+v", w)
	}
}

func TestTraceParseErrors(t *testing.T) {
	cases := []string{
		"",            // empty
		"x 1 1\n",     // bad op
		"r one 1\n",   // bad lpn
		"r -1 1\n",    // negative lpn
		"r 1 0\n",     // zero pages
		"r 1\n",       // too few fields
		"r 1 1 2 3\n", // too many fields
		"r 1 1 -5\n",  // negative think
		// lpn + pages past int64: MaxLPN would wrap negative.
		"w 4611686018427387904 4611686018427387904\n",
		"r 9223372036854775807 1\n",
	}
	for _, in := range cases {
		if _, err := ParseTrace("t", strings.NewReader(in)); err == nil {
			t.Errorf("ParseTrace(%q) accepted", in)
		}
	}
}

func TestTraceDrivesRunner(t *testing.T) {
	ctrl := newTestController(9)
	gen := NewStream(Mail, ctrl.LogicalPages(), 5)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, gen, 200); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTrace("mail", &buf)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(ctrl, tr, RunConfig{Requests: 300, QueueDepth: 8}) // wraps past 200
	if res.Completed != 300 {
		t.Fatalf("completed %d", res.Completed)
	}
}
