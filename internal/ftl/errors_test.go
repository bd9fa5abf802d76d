package ftl

import (
	"errors"
	"fmt"
	"testing"
)

// Every typed FTL error must survive the datapath's fmt.Errorf
// wrapping: callers (workload.Prefill, the host layer, cubesim)
// branch with errors.Is, so a wrap that drops the sentinel breaks
// degraded-mode handling and admission checks.
func TestTypedErrorsRoundTrip(t *testing.T) {
	_, c := testController(t, NewPagePolicy())

	err := c.Write(LPN(c.LogicalPages()), nil, func() {})
	if !errors.Is(err, ErrBadLPN) {
		t.Errorf("out-of-range write: got %v, want ErrBadLPN", err)
	}
	if err == ErrBadLPN {
		t.Error("ErrBadLPN returned bare: wrap must add LPN/capacity context")
	}
	if err := c.Write(LPN(-1), nil, func() {}); !errors.Is(err, ErrBadLPN) {
		t.Errorf("negative LPN: got %v, want ErrBadLPN", err)
	}

	if _, err := NewWriteBuffer(0); !errors.Is(err, ErrBufferCapacity) {
		t.Errorf("zero-capacity buffer: got %v, want ErrBufferCapacity", err)
	}

	// The allocation errors are produced deep in takeFreeBlock; the
	// contract is that wrapping with context preserves the sentinel.
	for _, sentinel := range []error{ErrDegraded, ErrOutOfSpace, ErrAllocFailed} {
		wrapped := fmt.Errorf("%w: chip 3", sentinel)
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("wrapped %v does not round-trip through errors.Is", sentinel)
		}
	}
}
