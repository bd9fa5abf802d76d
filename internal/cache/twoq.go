package cache

import "cubeftl/internal/pool"

// twoQ implements the 2Q replacement policy (Johnson & Shasha, VLDB
// '94), the scan-resistant alternative to LRU: new pages enter a small
// FIFO probation queue (A1in); only pages re-referenced after falling
// out of probation — their ghosts remembered in A1out — earn a slot in
// the main LRU (Am). A one-pass scan therefore churns only the
// probation quarter of the cache instead of washing out the whole
// working set, which is exactly the failure mode bulk tenants inflict
// on LRU in a shared host cache. The Cache guarantees insert is never
// called for a resident page and touch only for slots of resident ones.
type twoQ struct {
	s       slab
	kinCap  int // A1in capacity (resident probation FIFO)
	koutCap int // A1out capacity (non-resident ghost FIFO)

	a1in  queue // FIFO; head = newest
	am    queue // LRU; head = MRU
	ghost queue // FIFO of ghosts; head = newest

	// A ghost keeps its node but leaves the slab's index for this one:
	// only insert asks about ghosts, and every Lookup, Write and FillRead
	// asks about residents, which then probe a table a third less full
	// and read no node to tell a ghost from a resident page. With the
	// ghosts in the slab's index those probes were slower (measured,
	// EXPERIMENTS.md).
	ghosts pool.Index[int32]
}

// newTwoQ sizes the queues from the total resident capacity using the
// paper's recommended splits: Kin = 25% of the cache, Kout ghosts
// remember 50% of the cache's worth of recently evicted pages. The slab
// holds all of them plus the one page inserted before its victim is
// taken, and the ghost index the one ghost made before the oldest is
// forgotten.
func newTwoQ(capacity int) twoQ {
	kin := capacity / 4
	if kin < 1 {
		kin = 1
	}
	kout := capacity / 2
	if kout < 1 {
		kout = 1
	}
	return twoQ{
		s:       newSlab(capacity+1, kout),
		kinCap:  kin,
		koutCap: kout,
		a1in:    emptyQueue(),
		am:      emptyQueue(),
		ghost:   emptyQueue(),
		ghosts:  pool.NewIndex[int32](kout + 1),
	}
}

// touch records an access to a resident page.
func (q *twoQ) touch(slot int32) {
	if q.s.nodes[slot].queue == onAm {
		q.s.moveToFront(&q.am, slot)
	}
	// A hit in A1in leaves the page where it sits: 2Q promotes only on
	// re-reference after eviction from probation (via the ghost list).
}

// insert makes a page resident and returns its slot.
func (q *twoQ) insert(lpn int64) int32 {
	if slot, ok := q.ghosts.Delete(lpn); ok {
		// Re-referenced after probation: this page has proven itself —
		// admit straight into the main LRU.
		q.s.index.Put(lpn, slot)
		q.s.unlink(&q.ghost, slot)
		q.s.pushFront(&q.am, slot, onAm)
		return slot
	}
	return q.s.alloc(lpn, &q.a1in, onA1in)
}

// victim selects and removes the page to evict, reporting whether it
// carried unwritten data. At least one page must be resident.
func (q *twoQ) victim() (lpn int64, dirty bool) {
	// Evict from probation while it is over its share; pages falling
	// out of A1in leave a ghost behind.
	if (q.a1in.n > q.kinCap || q.am.n == 0) && q.a1in.n > 0 {
		slot, lpn, dirty := q.s.popTail(&q.a1in)
		q.s.nodes[slot].dirty = false
		q.s.index.Delete(lpn)
		q.ghosts.Put(lpn, slot)
		q.s.pushFront(&q.ghost, slot, onGhost)
		for q.ghost.n > q.koutCap {
			old, oldLPN, _ := q.s.popTail(&q.ghost)
			q.ghosts.Delete(oldLPN)
			q.s.release(old)
		}
		return lpn, dirty
	}
	slot, lpn, dirty := q.s.popTail(&q.am)
	q.s.drop(slot)
	return lpn, dirty
}

// len returns the resident page count.
func (q *twoQ) len() int { return q.a1in.n + q.am.n }
