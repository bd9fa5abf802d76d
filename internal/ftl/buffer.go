package ftl

import (
	"fmt"

	"cubeftl/internal/pool"
)

// WriteBuffer models the controller's DRAM write buffer. Host writes are
// acknowledged on admission; entries occupy a slot until their word-line
// program completes, so the buffer's utilization reflects how far flash
// programming lags behind the host — the signal the WAM thresholds on
// (§5.2).
type WriteBuffer struct {
	capacity int
	entries  pool.Index[bufEntry] // by LPN; one per occupied slot
	queue    pool.Ring[LPN]       // admission-ordered entries awaiting flush

	requeueEvents int64 // pages bounced back by failed/fenced programs
}

type bufEntry struct {
	stamp    uint64 // global write stamp of the latest data; flushes capture it
	inflight bool   // currently part of an issued program
	requeue  bool   // overwritten while in flight; must flush again
	trimmed  bool   // trimmed while in flight: holds no data
	requeues int    // failed-program requeues survived (telemetry)
}

// NewWriteBuffer returns a buffer holding up to capacity pages, or an
// error (ErrBufferCapacity) for a non-positive capacity.
func NewWriteBuffer(capacity int) (*WriteBuffer, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: got %d", ErrBufferCapacity, capacity)
	}
	return &WriteBuffer{capacity: capacity, entries: pool.NewIndex[bufEntry](capacity)}, nil
}

// Capacity returns the slot count.
func (b *WriteBuffer) Capacity() int { return b.capacity }

// Occupied returns the number of used slots (including in-flight ones).
func (b *WriteBuffer) Occupied() int { return b.entries.Len() }

// Utilization is the paper's mu: occupied slots over capacity.
func (b *WriteBuffer) Utilization() float64 {
	return float64(b.entries.Len()) / float64(b.capacity)
}

// Contains reports whether lpn's latest data lives in the buffer.
func (b *WriteBuffer) Contains(lpn LPN) bool {
	e := b.entries.Ref(int64(lpn))
	return e != nil && !e.trimmed
}

// Flushable returns how many entries are queued and not in flight.
func (b *WriteBuffer) Flushable() int { return b.queue.Len() }

// Put admits a host write carrying its global write stamp (monotonic
// across the device; see Controller). An overwrite of a buffered page
// coalesces in place and always succeeds; a new page needs a free slot.
// It reports whether the write was admitted.
func (b *WriteBuffer) Put(lpn LPN, stamp uint64) bool {
	if e := b.entries.Ref(int64(lpn)); e != nil {
		e.stamp, e.trimmed = stamp, false
		if e.inflight {
			e.requeue = true
		}
		return true
	}
	if b.entries.Len() >= b.capacity {
		return false
	}
	b.entries.Put(int64(lpn), bufEntry{stamp: stamp})
	b.queue.Push(lpn)
	return true
}

// FlushHandle identifies one page of an issued program so its slot can
// be settled on completion.
type FlushHandle struct {
	LPN LPN
	// Stamp is the global write stamp captured at issue; it is written
	// to the page's OOB and becomes the mapping's stamp on settle.
	Stamp uint64
	// Requeues is how many failed programs already bounced this entry
	// back to the queue before this issue — a page that survives a
	// fenced-die or program-status requeue still settles exactly once,
	// and this counter lets telemetry and tests see the journey.
	Requeues int
}

// TakeFlushGroup removes up to max queued entries for one word-line
// program, marking them in flight. The handles are appended to dst[:0]
// (the caller's per-program buffer; nil allocates one).
func (b *WriteBuffer) TakeFlushGroup(dst []FlushHandle, max int) []FlushHandle {
	out := dst[:0]
	for i := 0; i < max && b.queue.Len() > 0; i++ {
		lpn := b.queue.Pop()
		e := b.entries.Ref(int64(lpn))
		e.inflight = true
		out = append(out, FlushHandle{LPN: lpn, Stamp: e.stamp, Requeues: e.requeues})
	}
	return out
}

// Requeue returns in-flight entries to the head of the flush queue with
// their slots intact — the reprogram path after a failed safety check.
func (b *WriteBuffer) Requeue(hs []FlushHandle) {
	// Pushed to the front last to first, so the group keeps its order
	// ahead of everything already queued.
	for i := len(hs) - 1; i >= 0; i-- {
		e := b.entries.Ref(int64(hs[i].LPN))
		if e == nil || !e.inflight {
			continue
		}
		if e.trimmed { // nothing left to write
			b.entries.Delete(int64(hs[i].LPN))
			continue
		}
		e.inflight = false
		e.requeue = false
		e.requeues++
		b.requeueEvents++
		b.queue.PushFront(hs[i].LPN)
	}
}

// Trim forgets lpn's buffered data the way an overwrite supersedes it,
// under the trim's write stamp: a queued entry leaves the queue and frees
// its slot, which Trim reports; an in-flight one keeps its slot until its
// program settles — stale, the stamp having moved — and is neither
// requeued nor flushed again unless a write puts new data in it first.
func (b *WriteBuffer) Trim(lpn LPN, stamp uint64) (freed bool) {
	e := b.entries.Ref(int64(lpn))
	switch {
	case e == nil:
		return false
	case e.inflight:
		e.stamp, e.requeue, e.trimmed = stamp, false, true
		return false
	}
	b.entries.Delete(int64(lpn))
	for n := b.queue.Len(); n > 0; n-- { // the others keep their order
		if l := b.queue.Pop(); l != lpn {
			b.queue.Push(l)
		}
	}
	return true
}

// Settle resolves one flushed page after its program completed. It
// reports whether the captured data is still current (the caller should
// install the mapping) — stale data was overwritten mid-flight and must
// not be mapped. The slot is freed unless the entry needs another flush.
func (b *WriteBuffer) Settle(h FlushHandle) (current bool) {
	e := b.entries.Ref(int64(h.LPN))
	if e == nil {
		return false
	}
	current = e.stamp == h.Stamp
	if e.requeue {
		e.inflight = false
		e.requeue = false
		b.queue.Push(h.LPN)
		return current
	}
	b.entries.Delete(int64(h.LPN))
	return current
}
