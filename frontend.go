package cubeftl

// Persistent multi-queue front end (DESIGN.md §13). RunTenants builds a
// host interface, drives it with synthetic generators, and tears it
// down; a live block server instead needs queue pairs that outlive any
// one request stream, accept externally-generated I/O, and expose the
// QoS knobs online. AttachFrontEnd provides exactly that: the same
// NVMe-style SQ/CQ host layer, owned by the caller.

import (
	"fmt"

	"cubeftl/internal/ftl"
	"cubeftl/internal/host"
	"cubeftl/internal/ssd"
)

// QueueSpec describes one tenant queue pair of a persistent front end:
// Name (default "q<index>"), Depth (default 32; submissions beyond it
// fail with ErrQueueFull), Weight ("wrr"), Priority ("prio") and RateIOPS
// (0 = unlimited; the token bucket holds Depth tokens).
type QueueSpec = host.QueueConfig

// IOCompletion reports one finished front-end command: LatencyNs is the
// host-visible latency (submission-queue wait plus device service, in
// simulated time), RejectedPages counts pages a degraded (read-only)
// device refused — they complete immediately without touching media.
type IOCompletion = host.Completion

// TenantSnapshot is a point-in-time view of one tenant queue, for SLO
// controllers and operator dashboards: the queue's counters (Tenant,
// Submitted, Completed, QueueFulls, Grants, Throttles, ...), its
// cumulative ReadLat / WriteLat histograms, and QueueLen, Weight and
// RateIOPS as they stand. Latency-window tracking belongs to the
// consumer (see internal/server's SLO controller).
type TenantSnapshot = host.TenantView

// FrontEnd is a persistent NVMe-style multi-queue host interface over
// the SSD. Like the SSD itself it is single-threaded: all calls must
// come from the goroutine that owns the simulation. A FrontEnd does not
// survive Remount — attach a fresh one after recovery.
type FrontEnd struct {
	s *SSD
	h *host.Host
}

// AttachFrontEnd builds a persistent multi-queue front end over the
// device with one SQ/CQ pair per spec, arbitrated by arb (ArbRR,
// ArbWRR, ArbPrio). dispatchWidth bounds commands concurrently
// outstanding at the device across all queues (0 = sum of depths).
func (s *SSD) AttachFrontEnd(queues []QueueSpec, arb string, dispatchWidth int) (*FrontEnd, error) {
	arbiter, err := host.NewArbiter(arb, int64(DefaultStarvationGuard))
	if err != nil {
		return nil, err
	}
	h, err := host.New(s.ctrl, host.Config{
		Queues:        queues,
		Arb:           arbiter,
		DispatchWidth: dispatchWidth,
	})
	if err != nil {
		return nil, err
	}
	return &FrontEnd{s: s, h: h}, nil
}

// Submit enqueues one command (write=false reads) of pages consecutive
// logical pages starting at lpn into the tenant's queue. done (optional)
// runs in simulated time when the command completes — under
// Options.Recovery a write completes only once its pages are programmed,
// so done doubles as the durable-ack signal. A Submit from inside a
// Pump withdraws Pump's promise that nothing new is coming. Errors are
// synchronous admission failures: ErrQueueFull (retryable), ErrBadQueue,
// ErrBadLPN or ErrPowerLost (terminal).
func (f *FrontEnd) Submit(queue int, write bool, lpn int64, pages int, done func(IOCompletion)) error {
	if err := f.s.st.Up(); err != nil {
		return err
	}
	f.s.ctrl.SetDrainPromise(false)
	if pages < 1 {
		pages = 1
	}
	if lpn < 0 || lpn+int64(pages) > int64(f.s.ctrl.LogicalPages()) {
		return fmt.Errorf("%w: [%d, %d)", ErrBadLPN, lpn, lpn+int64(pages))
	}
	op := host.Read
	if write {
		op = host.Write
	}
	return f.h.Submit(queue, host.Command{Op: op, LPN: lpn, Pages: pages, Done: done})
}

// Outstanding returns commands submitted but not yet completed.
func (f *FrontEnd) Outstanding() int { return f.h.Outstanding() }

// Pump advances the simulation until every submitted command has
// completed and the controller has quiesced, delivering completions
// along the way. A live server calls this after each submission batch.
// The contract: the caller submits nothing until Pump returns
// (completions only record results). The device takes that as a promise
// that every durable write it will see until then is in already, so a
// partial word-line group leaves at once instead of being held for pages
// that cannot come; a Submit from a completion withdraws the promise for
// the rest of the call.
func (f *FrontEnd) Pump() {
	if f.s.st.Up() == nil {
		f.s.ctrl.SetDrainPromise(true)
		f.h.Drain()
		f.s.ctrl.SetDrainPromise(false)
	}
}

// SetWeight changes a tenant's WRR weight online (clamped to >= 1).
func (f *FrontEnd) SetWeight(queue, weight int) error { return f.h.SetWeight(queue, weight) }

// SetRate changes a tenant's IOPS cap online (0 removes the cap).
func (f *FrontEnd) SetRate(queue int, iops float64) error { return f.h.SetRate(queue, iops) }

// Snapshot returns a point-in-time view of every tenant queue.
func (f *FrontEnd) Snapshot() []TenantSnapshot { return f.h.Snapshot() }

// IsMapped reports whether lpn currently holds a written page — the
// probe behind the block server's StatLPN operation and the soak
// harness's acked-write audit.
func (s *SSD) IsMapped(lpn int64) (bool, error) {
	if lpn < 0 || lpn >= int64(s.ctrl.LogicalPages()) {
		return false, fmt.Errorf("%w: %d", ErrBadLPN, lpn)
	}
	return s.ctrl.Mapper().Lookup(ftl.LPN(lpn)) != ssd.UnmappedPPN, nil
}

// Interrupt asks the simulation to halt at the next event boundary. It
// is the one SSD method safe to call from another goroutine: signal
// handlers use it so Ctrl-C stops a long run in a consistent state that
// Quiesce can then checkpoint. The run-loop call in progress returns
// early; ClearInterrupt (called by Quiesce) re-arms the engine.
func (s *SSD) Interrupt() { s.eng.Interrupt() }

// Interrupted reports whether Interrupt has been called and not yet
// cleared by Quiesce.
func (s *SSD) Interrupted() bool { return s.eng.Interrupted() }

// Quiesce re-arms an interrupted engine, drains all in-flight facade
// I/O and buffered writes, and — with Options.Recovery — flushes the
// journal and writes a final checkpoint, running the simulation until
// the system area is fully durable. After Quiesce a process can exit
// knowing the next Mount starts from a zero-age checkpoint. Front-end
// commands are not drained here; call FrontEnd.Pump first.
func (s *SSD) Quiesce() {
	if s.st.Up() != nil {
		return // nothing left to make durable; Remount starts a new engine
	}
	s.eng.ClearInterrupt()
	s.eng.RunWhile(func() bool { return s.outstanding > 0 || !s.ctrl.Drained() })
	if mgr := s.st.Mgr; mgr != nil {
		mgr.CheckpointNow()
		s.eng.RunWhile(func() bool { return !mgr.Quiesced() })
	}
}
