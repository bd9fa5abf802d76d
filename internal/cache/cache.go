// Package cache implements the host-side DRAM cache tier that sits in
// front of a simulated SSD (DESIGN.md §14): a page-granular lookup
// structure with 2Q replacement and write-back absorption with
// dirty-flush accounting.
//
// In the storage-fleet architecture the cache absorbs read hits and
// write bursts before they reach a shard's multi-queue interface, the
// same layering wiscsee's `datacache` uses above its FTL. Like
// everything in the simulator the cache is deterministic: identical
// request sequences produce identical hit, miss, and eviction
// sequences, because all ordering comes from explicit lists, never from
// map iteration.
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

// Mode names the write discipline.
type Mode int

// WriteBack, the zero Mode and the only one, absorbs writes into the
// cache (DRAM latency) and marks the pages dirty; dirty pages reach the
// device only on eviction or an explicit flush. This trades durability
// for write latency — the classic volatile host-cache contract.
const WriteBack Mode = 0

// Policy2Q names the replacement policy, 2Q (Johnson & Shasha):
// scan-resistant FIFO+ghost+LRU. It is the only one.
const Policy2Q = "2q"

// Config shapes a cache instance.
type Config struct {
	// SizePages is the capacity in 16 KB pages. Zero or negative
	// disables the cache (New returns nil, and every method of a nil
	// *Cache behaves as a guaranteed miss).
	SizePages int
	// Policy is the replacement policy: "" or Policy2Q.
	Policy string
	// Mode is the write discipline: WriteBack.
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
	Hits        int64 `metric:"cache/hits gauge read lookups served from the cache"`
	Misses      int64 `metric:"cache/misses gauge read lookups that went to the device"`
	PartialHits int64 `metric:"cache/partial_hits gauge misses with some but not all pages resident"`

	// WriteHits counts written pages that were resident; WriteAllocs
	// pages inserted by write-back absorption.
	WriteHits   int64 `metric:"cache/write_hits gauge written pages that were resident"`
	WriteAllocs int64 `metric:"cache/write_allocs gauge pages inserted by write-back absorption"`

	// Inserts counts pages added; Evictions pages removed to make room.
	// DirtyEvictions is the subset of evictions that carried unwritten
	// data and therefore forced a device flush write.
	Inserts        int64 `metric:"cache/inserts gauge pages added"`
	Evictions      int64 `metric:"cache/evictions gauge pages removed to make room"`
	DirtyEvictions int64 `metric:"cache/dirty_evictions gauge evictions that forced a device flush write"`

	// FlushedPages counts dirty pages pushed to the device by explicit
	// FlushAll calls (drain/shutdown), as opposed to eviction flushes.
	FlushedPages int64 `metric:"cache/flushed_pages gauge dirty pages pushed to the device by an explicit flush"`
}

// Add adds o's counts to s, field by field: the fleet's ledger is its
// shards' sum.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.PartialHits += o.PartialHits
	s.WriteHits += o.WriteHits
	s.WriteAllocs += o.WriteAllocs
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.DirtyEvictions += o.DirtyEvictions
	s.FlushedPages += o.FlushedPages
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
	size  int  // resident capacity in pages
	q     twoQ // replacement queues; q.s holds residency and dirty flags
	stats Stats

	slots []int32 // Lookup: the slots of the pages found so far
	flush []int64 // FillRead / Write: the dirty evictions handed to the caller
}

// New builds a cache, or returns (nil, nil) when cfg disables it
// (SizePages <= 0). A nil *Cache is safe to use.
func New(cfg Config) (*Cache, error) {
	if cfg.Mode != WriteBack {
		return nil, fmt.Errorf("%w: %d (the one mode is WriteBack)", ErrBadMode, cfg.Mode)
	}
	if cfg.Policy != "" && cfg.Policy != Policy2Q {
		return nil, fmt.Errorf("%w: %q (want %s)", ErrBadPolicy, cfg.Policy, Policy2Q)
	}
	if cfg.SizePages <= 0 {
		return nil, nil
	}
	return &Cache{size: cfg.SizePages, q: newTwoQ(cfg.SizePages)}, nil
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
		if slot, ok := c.q.s.index.Get(lpn + p); ok {
			c.slots = append(c.slots, slot)
		}
	}
	if len(c.slots) == pages {
		for _, slot := range c.slots {
			c.q.touch(slot)
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
		if slot, ok := c.q.s.index.Get(page); ok {
			c.q.touch(slot)
			continue
		}
		c.insertPage(page, false)
	}
	return c.flush
}

// Write applies a write of pages consecutive pages starting at lpn.
// absorbed reports whether the cache took ownership of the data, which
// an enabled cache always does: the caller completes the write at DRAM
// latency and must NOT send it to the device. A nil cache absorbs
// nothing, and the caller sends the write to the device as usual. The
// returned dirty evictions must be flushed to the device by the caller;
// like FillRead's, the slice is valid until the next FillRead or Write.
func (c *Cache) Write(lpn int64, pages int) (absorbed bool, flush []int64) {
	if c == nil {
		return false, nil
	}
	c.flush = c.flush[:0]
	for p := int64(0); p < int64(pages); p++ {
		page := lpn + p
		if slot, ok := c.q.s.index.Get(page); ok {
			c.stats.WriteHits++
			c.q.touch(slot)
			c.q.s.nodes[slot].dirty = true
			continue
		}
		c.stats.WriteAllocs++
		c.insertPage(page, true)
	}
	return true, c.flush
}

// insertPage makes page resident (dirty or clean), evicting as needed
// and noting forced dirty flushes in c.flush.
func (c *Cache) insertPage(page int64, dirty bool) {
	c.stats.Inserts++
	c.q.s.nodes[c.q.insert(page)].dirty = dirty
	for c.q.len() > c.size {
		victim, wasDirty := c.q.victim()
		c.stats.Evictions++
		if wasDirty {
			c.stats.DirtyEvictions++
			c.flush = append(c.flush, victim)
		}
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
	for i := range c.q.s.nodes {
		if n := &c.q.s.nodes[i]; n.dirty {
			n.dirty = false
			out = append(out, n.lpn)
		}
	}
	slices.Sort(out)
	c.stats.FlushedPages += int64(len(out))
	return out
}
