package cache

// The container/list + four-map cache this package had before the slab
// (ISSUE 16), kept as the oracle TestSlabMatchesReference drives the
// live implementation against. Nothing here shares code with cache.go
// beyond Config, Mode and Stats.

import (
	"container/list"
	"fmt"
	"sort"
)

// refPolicy is a replacement strategy over resident page numbers. The
// cache guarantees insert is never called for a resident page and
// touch/remove only for resident ones.
type refPolicy interface {
	name() string
	// touch records an access to a resident page.
	touch(lpn int64)
	// insert makes a page resident.
	insert(lpn int64)
	// victim selects and removes the page to evict.
	victim() (int64, bool)
	// len returns the resident page count.
	len() int
}

// refCache is the reference host-side DRAM page cache.
type refCache struct {
	cfg   Config
	pol   refPolicy
	dirty map[int64]bool // resident page -> dirty flag
	stats Stats
}

// newRefCache builds the reference for an enabled configuration.
func newRefCache(cfg Config) (*refCache, error) {
	if _, err := ParseMode(cfg.Mode.String()); err != nil {
		return nil, err
	}
	if cfg.SizePages <= 0 {
		return nil, nil
	}
	var pol refPolicy
	switch cfg.Policy {
	case "", PolicyLRU:
		cfg.Policy = PolicyLRU
		pol = newRefLRU()
	case Policy2Q:
		pol = newRefTwoQ(cfg.SizePages)
	default:
		return nil, fmt.Errorf("%w: %q (want %s|%s)", ErrBadPolicy, cfg.Policy, PolicyLRU, Policy2Q)
	}
	return &refCache{cfg: cfg, pol: pol, dirty: make(map[int64]bool)}, nil
}

// Len returns the resident page count.
func (c *refCache) Len() int {
	if c == nil {
		return 0
	}
	return c.pol.len()
}

// Stats returns the cumulative counters.
func (c *refCache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// Lookup serves a read of pages consecutive pages starting at lpn. It
// returns true — and refreshes recency — only when every page is
// resident; a partial hit is a miss (the device read fetches the whole
// extent anyway, and FillRead re-inserts it).
func (c *refCache) Lookup(lpn int64, pages int) bool {
	if c == nil {
		return false
	}
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
	if c == nil {
		return nil
	}
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

// Write applies a write of pages consecutive pages starting at lpn.
// absorbed reports whether the cache took ownership of the data
// (write-back): the caller completes the write at DRAM latency and must
// NOT send it to the device. When absorbed is false (write-through) the
// caller sends the write to the device as usual; resident copies have
// been refreshed in place. Either way the returned dirty evictions must
// be flushed to the device by the caller.
func (c *refCache) Write(lpn int64, pages int) (absorbed bool, flush []int64) {
	if c == nil {
		return false, nil
	}
	back := c.cfg.Mode == WriteBack
	for p := int64(0); p < int64(pages); p++ {
		page := lpn + p
		if _, ok := c.dirty[page]; ok {
			c.stats.WriteHits++
			c.pol.touch(page)
			c.dirty[page] = back // write-through refresh leaves the page clean
			continue
		}
		if back {
			c.stats.WriteAllocs++
			flush = c.insertPage(page, true, flush)
		}
		// Write-through does not allocate on write misses: streaming
		// writes must not wash the read working set out of the cache.
	}
	return back, flush
}

// insertPage makes page resident (dirty or clean), evicting as needed,
// appending forced dirty flushes to flush.
func (c *refCache) insertPage(page int64, dirty bool, flush []int64) []int64 {
	c.stats.Inserts++
	c.pol.insert(page)
	c.dirty[page] = dirty
	for c.pol.len() > c.cfg.SizePages {
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

// Invalidate drops a page (e.g. after a trim); dirty data is discarded.
func (c *refCache) Invalidate(lpn int64) {
	if c == nil {
		return
	}
	if _, ok := c.dirty[lpn]; !ok {
		return
	}
	// Policies have no random remove; rotate victims until the target
	// surfaces is wasteful, so policies expose remove via type switch.
	switch p := c.pol.(type) {
	case *refLRU:
		p.remove(lpn)
	case *refTwoQ:
		p.remove(lpn)
	}
	delete(c.dirty, lpn)
}

// FlushAll returns every dirty page in ascending LPN order and marks
// them clean. The caller writes them to the device — this is the drain
// path, so a run's final state does not depend on what happened to be
// resident. The deterministic ordering matters: dirty state lives in a
// map, and map iteration order must never leak into the simulation.
func (c *refCache) FlushAll() []int64 {
	if c == nil {
		return nil
	}
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

// refLRU is classic least-recently-used replacement: one recency list,
// most-recent at the front, victims from the back.
type refLRU struct {
	order *list.List // of int64 LPN; front = MRU
	index map[int64]*list.Element
}

func newRefLRU() *refLRU {
	return &refLRU{order: list.New(), index: make(map[int64]*list.Element)}
}

func (l *refLRU) name() string { return PolicyLRU }

func (l *refLRU) touch(lpn int64) {
	if e, ok := l.index[lpn]; ok {
		l.order.MoveToFront(e)
	}
}

func (l *refLRU) insert(lpn int64) {
	l.index[lpn] = l.order.PushFront(lpn)
}

func (l *refLRU) victim() (int64, bool) {
	e := l.order.Back()
	if e == nil {
		return 0, false
	}
	lpn := e.Value.(int64)
	l.order.Remove(e)
	delete(l.index, lpn)
	return lpn, true
}

func (l *refLRU) remove(lpn int64) {
	if e, ok := l.index[lpn]; ok {
		l.order.Remove(e)
		delete(l.index, lpn)
	}
}

func (l *refLRU) len() int { return l.order.Len() }

// refTwoQ implements the 2Q replacement refPolicy (Johnson & Shasha, VLDB
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

func (q *refTwoQ) name() string { return Policy2Q }

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

func (q *refTwoQ) remove(lpn int64) {
	if e, ok := q.inIndex[lpn]; ok {
		q.a1in.Remove(e)
		delete(q.inIndex, lpn)
		return
	}
	if e, ok := q.amIndex[lpn]; ok {
		q.am.Remove(e)
		delete(q.amIndex, lpn)
	}
}

func (q *refTwoQ) len() int { return q.a1in.Len() + q.am.Len() }
