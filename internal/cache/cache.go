// Package cache implements the host-side DRAM cache tier that sits in
// front of a simulated SSD (DESIGN.md §14): a page-granular lookup
// structure with pluggable replacement policies (LRU and 2Q) and two
// write disciplines (write-through and write-back with dirty-flush
// accounting).
//
// In the storage-fleet architecture the cache absorbs read hits and —
// in write-back mode — write bursts before they reach a shard's
// multi-queue interface, the same layering wiscsee's `datacache` uses
// above its FTL. Like everything in the simulator the cache is
// deterministic: identical request sequences produce identical hit,
// miss, and eviction sequences, because all ordering comes from
// explicit lists, never from map iteration.
//
// The cache is not safe for concurrent use. In fleet mode each shard
// owns a private instance consulted from the shard's own goroutine;
// cross-shard state would both serialize the fleet and break the
// per-shard determinism argument.
package cache

import (
	"errors"
	"fmt"
	"slices"
)

// Mode selects the write discipline.
type Mode int

const (
	// WriteThrough sends every write to the device; cached copies of
	// the written pages are refreshed (write-update) but the cache
	// never holds data the device does not.
	WriteThrough Mode = iota
	// WriteBack absorbs writes into the cache (DRAM latency) and marks
	// the pages dirty; dirty pages reach the device only on eviction or
	// an explicit flush. This trades durability for write latency — the
	// classic volatile host-cache contract.
	WriteBack
)

// String names the mode ("through"/"back").
func (m Mode) String() string {
	if m == WriteBack {
		return "back"
	}
	return "through"
}

// ParseMode converts a flag value ("through", "back") into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "through", "write-through", "wt":
		return WriteThrough, nil
	case "back", "write-back", "wb":
		return WriteBack, nil
	}
	return 0, fmt.Errorf("%w: %q (want through|back)", ErrBadMode, s)
}

// Policy names accepted by Config.Policy.
const (
	PolicyLRU = "lru" // least-recently-used, the default
	Policy2Q  = "2q"  // 2Q (Johnson & Shasha): scan-resistant FIFO+ghost+LRU
)

// Config shapes a cache instance.
type Config struct {
	// SizePages is the capacity in 16 KB pages. Zero or negative
	// disables the cache (New returns nil, and every method of a nil
	// *Cache behaves as a guaranteed miss).
	SizePages int
	// Policy is the replacement policy: PolicyLRU (default) or Policy2Q.
	Policy string
	// Mode is the write discipline (default WriteThrough).
	Mode Mode
}

// Configuration errors.
var (
	ErrBadPolicy = errors.New("cache: unknown replacement policy")
	ErrBadMode   = errors.New("cache: unknown write mode")
)

// Stats counts cache activity. All counters are cumulative.
type Stats struct {
	// Hits counts read lookups fully served from the cache; Misses the
	// rest. PartialHits is the subset of misses where at least one (but
	// not every) page of a multi-page request was resident.
	Hits        int64
	Misses      int64
	PartialHits int64

	// WriteHits counts written pages that were resident; WriteAllocs
	// pages inserted by write-back absorption.
	WriteHits   int64
	WriteAllocs int64

	// Inserts counts pages added; Evictions pages removed to make room.
	// DirtyEvictions is the subset of evictions that carried unwritten
	// data and therefore forced a device flush write.
	Inserts        int64
	Evictions      int64
	DirtyEvictions int64

	// FlushedPages counts dirty pages pushed to the device by explicit
	// FlushAll calls (drain/shutdown), as opposed to eviction flushes.
	FlushedPages int64
}

// HitRate returns read hits over read lookups in [0, 1].
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a host-side DRAM page cache. A nil *Cache is a valid,
// disabled cache: every lookup misses and no write is absorbed.
type Cache struct {
	cfg   Config
	pol   policy
	s     *slab // the policy's nodes: residency and dirty flags live here
	stats Stats

	slots []int32 // Lookup: the slots of the pages found so far
	flush []int64 // FillRead / Write: the dirty evictions handed to the caller
}

// New builds a cache, or returns (nil, nil) when cfg disables it
// (SizePages <= 0). A nil *Cache is safe to use.
func New(cfg Config) (*Cache, error) {
	if _, err := ParseMode(cfg.Mode.String()); err != nil {
		return nil, err
	}
	if cfg.SizePages <= 0 {
		return nil, nil
	}
	c := &Cache{cfg: cfg}
	switch cfg.Policy {
	case "", PolicyLRU:
		c.cfg.Policy = PolicyLRU
		l := newLRU(cfg.SizePages)
		c.pol, c.s = l, l.s
	case Policy2Q:
		q := newTwoQ(cfg.SizePages)
		c.pol, c.s = q, q.s
	default:
		return nil, fmt.Errorf("%w: %q (want %s|%s)", ErrBadPolicy, cfg.Policy, PolicyLRU, Policy2Q)
	}
	return c, nil
}

// Enabled reports whether the cache exists.
func (c *Cache) Enabled() bool { return c != nil }

// Len returns the resident page count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return c.pol.len()
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// Lookup serves a read of pages consecutive pages starting at lpn. It
// returns true — and refreshes recency — only when every page is
// resident; a partial hit is a miss (the device read fetches the whole
// extent anyway, and FillRead re-inserts it).
func (c *Cache) Lookup(lpn int64, pages int) bool {
	if c == nil {
		return false
	}
	c.slots = c.slots[:0]
	for p := int64(0); p < int64(pages); p++ {
		if slot, ok := c.s.index.Get(lpn + p); ok {
			c.slots = append(c.slots, slot)
		}
	}
	if len(c.slots) == pages {
		for _, slot := range c.slots {
			c.pol.touch(slot)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	if len(c.slots) > 0 {
		c.stats.PartialHits++
	}
	return false
}

// FillRead inserts the pages of a completed device read. Pages already
// resident (a partial hit) keep their state and are only touched. It
// returns the dirty pages evicted to make room, in eviction order — the
// caller must write them to the device (flush accounting). The slice is
// the cache's own: it is valid until the next FillRead or Write.
func (c *Cache) FillRead(lpn int64, pages int) []int64 {
	if c == nil {
		return nil
	}
	c.flush = c.flush[:0]
	for p := int64(0); p < int64(pages); p++ {
		page := lpn + p
		if slot, ok := c.s.index.Get(page); ok {
			c.pol.touch(slot)
			continue
		}
		c.insertPage(page, false)
	}
	return c.flush
}

// Write applies a write of pages consecutive pages starting at lpn.
// absorbed reports whether the cache took ownership of the data
// (write-back): the caller completes the write at DRAM latency and must
// NOT send it to the device. When absorbed is false (write-through) the
// caller sends the write to the device as usual; resident copies have
// been refreshed in place. Either way the returned dirty evictions must
// be flushed to the device by the caller; like FillRead's, the slice is
// valid until the next FillRead or Write.
func (c *Cache) Write(lpn int64, pages int) (absorbed bool, flush []int64) {
	if c == nil {
		return false, nil
	}
	c.flush = c.flush[:0]
	back := c.cfg.Mode == WriteBack
	for p := int64(0); p < int64(pages); p++ {
		page := lpn + p
		if slot, ok := c.s.index.Get(page); ok {
			c.stats.WriteHits++
			c.pol.touch(slot)
			c.s.nodes[slot].dirty = back // write-through refresh leaves the page clean
			continue
		}
		if back {
			c.stats.WriteAllocs++
			c.insertPage(page, true)
		}
		// Write-through does not allocate on write misses: streaming
		// writes must not wash the read working set out of the cache.
	}
	return back, c.flush
}

// insertPage makes page resident (dirty or clean), evicting as needed
// and noting forced dirty flushes in c.flush.
func (c *Cache) insertPage(page int64, dirty bool) {
	c.stats.Inserts++
	c.s.nodes[c.pol.insert(page)].dirty = dirty
	for c.pol.len() > c.cfg.SizePages {
		victim, wasDirty, ok := c.pol.victim()
		if !ok {
			break // cannot happen: len > 0
		}
		c.stats.Evictions++
		if wasDirty {
			c.stats.DirtyEvictions++
			c.flush = append(c.flush, victim)
		}
	}
}

// Invalidate drops a page (e.g. after a trim); dirty data is discarded.
func (c *Cache) Invalidate(lpn int64) {
	if c == nil {
		return
	}
	if slot, ok := c.s.index.Get(lpn); ok {
		c.pol.remove(slot)
	}
}

// FlushAll returns every dirty page in ascending LPN order and marks
// them clean. The caller writes them to the device — this is the drain
// path, so a run's final state does not depend on what happened to be
// resident. The order is sorted, not slab order, so that it does not
// depend on which slots the pages happened to land in.
func (c *Cache) FlushAll() []int64 {
	if c == nil {
		return nil
	}
	var out []int64
	for i := range c.s.nodes {
		if n := &c.s.nodes[i]; n.dirty {
			n.dirty = false
			out = append(out, n.lpn)
		}
	}
	slices.Sort(out)
	c.stats.FlushedPages += int64(len(out))
	return out
}
