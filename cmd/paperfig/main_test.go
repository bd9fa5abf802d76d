package main

import (
	"bytes"
	"strings"
	"testing"
)

// A bad id anywhere on the command line stops the run before the first
// figure prints, and no id at all is a usage error.
func TestIDsCheckedBeforeAnyFigureRuns(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"fig5", "bogus", "fig6"}, &out, &errb); code != 1 || out.Len() != 0 || !strings.Contains(errb.String(), `"bogus"`) {
		t.Errorf("fig5 bogus fig6: exit %d, %d bytes of stdout, stderr %q", code, out.Len(), errb.String())
	}
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no id: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"fig5"}, &out, &errb); code != 0 || !strings.Contains(out.String(), "regenerated in") || errb.Len() != 0 {
		t.Errorf("fig5: exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
}
