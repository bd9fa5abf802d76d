package cache

// The container/list + four-map cache this package had before the slab
// (ISSUE 16), kept as the oracle TestSlabMatchesReference drives the
// live implementation against. Nothing here shares code with cache.go
// beyond Stats.

import (
	"container/list"
	"sort"
)

// refCache is the reference host-side DRAM page cache: 2Q, write-back.
type refCache struct {
	size  int
	pol   *refTwoQ
	dirty map[int64]bool // resident page -> dirty flag
	stats Stats
}

// newRefCache builds the reference for a cache of size pages.
func newRefCache(size int) *refCache {
	return &refCache{size: size, pol: newRefTwoQ(size), dirty: make(map[int64]bool)}
}

// Len returns the resident page count.
func (c *refCache) Len() int { return c.pol.len() }

// Stats returns the cumulative counters.
func (c *refCache) Stats() Stats { return c.stats }

// Lookup serves a read of pages consecutive pages starting at lpn. It
// returns true — and refreshes recency — only when every page is
// resident; a partial hit is a miss (the device read fetches the whole
// extent anyway, and FillRead re-inserts it).
func (c *refCache) Lookup(lpn int64, pages int) bool {
	resident := 0
	for p := int64(0); p < int64(pages); p++ {
		if _, ok := c.dirty[lpn+p]; ok {
			resident++
		}
	}
	if resident == pages {
		for p := int64(0); p < int64(pages); p++ {
			c.pol.touch(lpn + p)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	if resident > 0 {
		c.stats.PartialHits++
	}
	return false
}

// FillRead inserts the pages of a completed device read. Pages already
// resident (a partial hit) keep their state and are only touched. It
// returns the dirty pages evicted to make room, in eviction order — the
// caller must write them to the device (flush accounting).
func (c *refCache) FillRead(lpn int64, pages int) []int64 {
	var flush []int64
	for p := int64(0); p < int64(pages); p++ {
		page := lpn + p
		if _, ok := c.dirty[page]; ok {
			c.pol.touch(page)
			continue
		}
		flush = c.insertPage(page, false, flush)
	}
	return flush
}

// Write applies a write of pages consecutive pages starting at lpn:
// the cache absorbs it, marking every page dirty. The returned dirty
// evictions must be flushed to the device by the caller.
func (c *refCache) Write(lpn int64, pages int) (absorbed bool, flush []int64) {
	for p := int64(0); p < int64(pages); p++ {
		page := lpn + p
		if _, ok := c.dirty[page]; ok {
			c.stats.WriteHits++
			c.pol.touch(page)
			c.dirty[page] = true
			continue
		}
		c.stats.WriteAllocs++
		flush = c.insertPage(page, true, flush)
	}
	return true, flush
}

// insertPage makes page resident (dirty or clean), evicting as needed,
// appending forced dirty flushes to flush.
func (c *refCache) insertPage(page int64, dirty bool, flush []int64) []int64 {
	c.stats.Inserts++
	c.pol.insert(page)
	c.dirty[page] = dirty
	for c.pol.len() > c.size {
		victim, ok := c.pol.victim()
		if !ok {
			break // cannot happen: len > 0
		}
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.DirtyEvictions++
			flush = append(flush, victim)
		}
		delete(c.dirty, victim)
	}
	return flush
}

// FlushAll returns every dirty page in ascending LPN order and marks
// them clean. The caller writes them to the device — this is the drain
// path, so a run's final state does not depend on what happened to be
// resident. The deterministic ordering matters: dirty state lives in a
// map, and map iteration order must never leak into the simulation.
func (c *refCache) FlushAll() []int64 {
	var out []int64
	for page, d := range c.dirty {
		if d {
			out = append(out, page)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for _, page := range out {
		c.dirty[page] = false
	}
	c.stats.FlushedPages += int64(len(out))
	return out
}

// refTwoQ implements the 2Q replacement policy (Johnson & Shasha, VLDB
// '94), the scan-resistant alternative to LRU: new pages enter a small
// FIFO probation queue (A1in); only pages re-referenced after falling
// out of probation — their ghosts remembered in A1out — earn a slot in
// the main LRU (Am). A one-pass scan therefore churns only the
// probation quarter of the cache instead of washing out the whole
// working set, which is exactly the failure mode bulk tenants inflict
// on LRU in a shared host cache.
type refTwoQ struct {
	kinCap  int // A1in capacity (resident probation FIFO)
	koutCap int // A1out capacity (non-resident ghost FIFO)

	a1in  *list.List // FIFO of int64; front = newest
	am    *list.List // LRU of int64; front = MRU
	ghost *list.List // FIFO of int64 ghosts; front = newest

	inIndex    map[int64]*list.Element
	amIndex    map[int64]*list.Element
	ghostIndex map[int64]*list.Element
}

// newRefTwoQ sizes the queues from the total resident capacity using the
// paper's recommended splits: Kin = 25% of the cache, Kout ghosts
// remember 50% of the cache's worth of recently evicted pages.
func newRefTwoQ(capacity int) *refTwoQ {
	kin := capacity / 4
	if kin < 1 {
		kin = 1
	}
	kout := capacity / 2
	if kout < 1 {
		kout = 1
	}
	return &refTwoQ{
		kinCap:     kin,
		koutCap:    kout,
		a1in:       list.New(),
		am:         list.New(),
		ghost:      list.New(),
		inIndex:    make(map[int64]*list.Element),
		amIndex:    make(map[int64]*list.Element),
		ghostIndex: make(map[int64]*list.Element),
	}
}

func (q *refTwoQ) touch(lpn int64) {
	if e, ok := q.amIndex[lpn]; ok {
		q.am.MoveToFront(e)
	}
	// A hit in A1in leaves the page where it sits: 2Q promotes only on
	// re-reference after eviction from probation (via the ghost list).
}

func (q *refTwoQ) insert(lpn int64) {
	if e, ok := q.ghostIndex[lpn]; ok {
		// Re-referenced after probation: this page has proven itself —
		// admit straight into the main LRU.
		q.ghost.Remove(e)
		delete(q.ghostIndex, lpn)
		q.amIndex[lpn] = q.am.PushFront(lpn)
		return
	}
	q.inIndex[lpn] = q.a1in.PushFront(lpn)
}

func (q *refTwoQ) victim() (int64, bool) {
	// Evict from probation while it is over its share; pages falling
	// out of A1in leave a ghost behind.
	if q.a1in.Len() > q.kinCap || q.am.Len() == 0 {
		if e := q.a1in.Back(); e != nil {
			lpn := e.Value.(int64)
			q.a1in.Remove(e)
			delete(q.inIndex, lpn)
			q.addGhost(lpn)
			return lpn, true
		}
	}
	e := q.am.Back()
	if e == nil {
		return 0, false
	}
	lpn := e.Value.(int64)
	q.am.Remove(e)
	delete(q.amIndex, lpn)
	return lpn, true
}

func (q *refTwoQ) addGhost(lpn int64) {
	q.ghostIndex[lpn] = q.ghost.PushFront(lpn)
	for q.ghost.Len() > q.koutCap {
		old := q.ghost.Back()
		q.ghost.Remove(old)
		delete(q.ghostIndex, old.Value.(int64))
	}
}

func (q *refTwoQ) len() int { return q.a1in.Len() + q.am.Len() }
