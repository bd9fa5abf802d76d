package cubeftl

// Client-visible error taxonomy. Every condition the device or its
// multi-queue front end can reject on is exported here as an
// errors.Is-able sentinel aliased to the internal definition, so a
// caller holding only the facade can discriminate errors produced
// anywhere in the stack. IsRetryable/IsTerminal encode the retry
// contract the block server's status codes are derived from
// (DESIGN.md §13).

import (
	"errors"

	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/ssd"
	"cubeftl/internal/stack"
)

// Aliases of the internal typed errors. Each is the same error value
// the internal package returns (not a copy), so errors.Is works across
// the facade boundary in both directions.
var (
	// ErrQueueFull reports a submission refused because the tenant's
	// queue pair is at its configured depth — admission-control
	// backpressure. Retry after a completion frees a slot.
	ErrQueueFull = host.ErrQueueFull

	// ErrBadQueue reports a submission to a queue index that does not
	// exist on this front end.
	ErrBadQueue = host.ErrBadQueue

	// ErrDieFenced reports a program that reached a die after it
	// degraded to read-only. The FTL requeues such writes to healthy
	// dies, so a client seeing this transiently should retry.
	ErrDieFenced = ssd.ErrDieFenced

	// ErrPowerLost reports host I/O offered to a device between PowerCut
	// and Remount. Nothing was queued; the request is for whoever
	// remounts the device to re-issue, not for a retry loop.
	ErrPowerLost = stack.ErrPowerLost
)

// Retryable classifies err as transient: the same request can succeed
// if re-issued after backoff (queue-full admission rejections, programs
// bounced off a freshly-fenced die while the FTL re-routes). False for
// unknown errors — the client must not spin on conditions this layer
// cannot vouch for.
func Retryable(err error) bool {
	return errors.Is(err, host.ErrQueueFull) || errors.Is(err, ssd.ErrDieFenced)
}

// Terminal classifies err as permanent for the issuing client: retrying
// the identical request cannot succeed (out-of-range LPN, nonexistent
// queue, a device-wide read-only degrade, a powered-off device,
// configuration errors). False for unknown errors.
func Terminal(err error) bool {
	return errors.Is(err, ftl.ErrBadLPN) || errors.Is(err, ErrBadLPN) ||
		errors.Is(err, host.ErrBadQueue) || errors.Is(err, ftl.ErrDegraded) ||
		errors.Is(err, host.ErrUnknownArbiter) || errors.Is(err, host.ErrNoQueues) ||
		errors.Is(err, host.ErrBadRate) ||
		errors.Is(err, ErrPowerLost)
}
