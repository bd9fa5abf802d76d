package cubeftl

import (
	"errors"
	"fmt"
	"testing"

	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/ssd"
)

// The facade aliases must be the same values the internal packages
// return, so errors wrapped at any layer classify identically on both
// sides of the boundary.
func TestErrorAliasesCrossFacadeBoundary(t *testing.T) {
	cases := []struct {
		name     string
		internal error
		facade   error
	}{
		{"queue-full", host.ErrQueueFull, ErrQueueFull},
		{"bad-queue", host.ErrBadQueue, ErrBadQueue},
		{"die-fenced", ssd.ErrDieFenced, ErrDieFenced},
		{"degraded", ftl.ErrDegraded, ErrDegraded},
		{"bad-lpn", ftl.ErrBadLPN, ErrBadLPN},
	}
	for _, c := range cases {
		wrapped := fmt.Errorf("layer context: %w", c.internal)
		if !errors.Is(wrapped, c.facade) {
			t.Errorf("%s: internal error does not match facade sentinel", c.name)
		}
		wrapped = fmt.Errorf("client context: %w", c.facade)
		if !errors.Is(wrapped, c.internal) {
			t.Errorf("%s: facade error does not match internal sentinel", c.name)
		}
	}
}

func TestRetryableTerminalClassification(t *testing.T) {
	retryable := []error{
		ErrQueueFull,
		fmt.Errorf("host: %w: tenant db (depth 16)", host.ErrQueueFull),
		ErrDieFenced,
		fmt.Errorf("wrapped: %w", ssd.ErrDieFenced),
	}
	terminal := []error{
		ErrBadLPN,
		fmt.Errorf("%w: 99999", ftl.ErrBadLPN),
		ErrBadQueue,
		ErrDegraded,
		fmt.Errorf("write refused: %w", ftl.ErrDegraded),
		host.ErrUnknownArbiter,
		host.ErrNoQueues,
		host.CheckRate(-1),
	}
	for _, err := range retryable {
		if !Retryable(err) {
			t.Errorf("Retryable(%v) = false", err)
		}
		if Terminal(err) {
			t.Errorf("Terminal(%v) = true for a retryable error", err)
		}
	}
	for _, err := range terminal {
		if !Terminal(err) {
			t.Errorf("Terminal(%v) = false", err)
		}
		if Retryable(err) {
			t.Errorf("Retryable(%v) = true for a terminal error", err)
		}
	}
	// Unknown errors classify as neither: the caller must not assume a
	// retry is safe, nor that the condition is permanent.
	unknown := errors.New("something else")
	if Retryable(unknown) || Terminal(unknown) {
		t.Error("unknown error classified")
	}
}

// End to end: errors produced by live facade calls classify correctly.
func TestLiveErrorsClassify(t *testing.T) {
	dev, err := New(Options{BlocksPerChip: 16, Channels: 1, DiesPerChannel: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	werr := dev.Write(int64(dev.LogicalPages())+5, nil)
	if !errors.Is(werr, ErrBadLPN) {
		t.Fatalf("out-of-range write: %v, want ErrBadLPN", werr)
	}
	if !Terminal(werr) || Retryable(werr) {
		t.Fatalf("out-of-range write misclassified: %v", werr)
	}
}
