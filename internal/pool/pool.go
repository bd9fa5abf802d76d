// Package pool holds the containers the datapath is built on: a FIFO
// ring whose vacated slots are zeroed, a LIFO free list of records, and
// a fixed-capacity index from page numbers to values (index.go). They
// exist so that a steady-state host IO allocates nothing, hashes nothing
// through a Go map, and so that nothing an op captured (probes, payload
// slices, completion callbacks) stays reachable after the op is done.
//
// None is safe for concurrent use: every owner is a single-threaded
// simulation stack (fleet shards each own theirs).
package pool

// Ring is a growable FIFO queue. Unlike a slice popped with s = s[1:],
// it reuses its backing array (so its capacity is bounded by the peak
// queue length, not by the number of pushes) and zeroes every slot it
// vacates (so a popped element is not pinned by the array).
// The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the number of elements the ring holds without growing.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront inserts v at the head: it becomes the next element popped.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Peek returns the oldest element without removing it. The ring must
// not be empty.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("pool: Peek of empty ring")
	}
	return r.buf[r.head]
}

// Pop removes and returns the oldest element, zeroing its slot. The ring
// must not be empty.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("pool: Pop of empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// freeListCap bounds every FreeList when positive (see
// LimitFreeListsForTest).
var freeListCap int

// LimitFreeListsForTest caps every free list in the process at n
// records and returns a function restoring the previous setting. With a
// cap of one, all but one released record is dropped for good, so a
// record that is stepped after its release can never have been handed
// out again and trips its owner's liveness check. Tests only: it is a
// process-wide setting, so the caller must not run in parallel with
// other simulations.
func LimitFreeListsForTest(n int) (restore func()) {
	prev := freeListCap
	freeListCap = n
	return func() { freeListCap = prev }
}

// FreeList is a LIFO stack of released records awaiting reuse. Records
// are created by the owner only when Get finds the list empty, so the
// population is bounded by the owner's peak concurrency. The zero value
// is an empty list.
type FreeList[T any] struct {
	free []*T
}

// Get pops the most recently released record, or returns nil when the
// list is empty (the owner then builds a new one).
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put releases a record for reuse. The owner resets the record first.
func (l *FreeList[T]) Put(x *T) {
	if freeListCap > 0 && len(l.free) >= freeListCap {
		return
	}
	l.free = append(l.free, x)
}

// CheckLive panics unless live. Every stage of a pooled op record calls
// it with the record's liveness flag first: stepping a record that has
// been released is a use-after-release bug, never an input condition.
func CheckLive(live bool, what string) {
	if !live {
		panic("released " + what + " stepped again")
	}
}

// Len returns how many released records the list holds.
func (l *FreeList[T]) Len() int { return len(l.free) }
