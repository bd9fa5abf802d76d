package cache

import "cubeftl/internal/pool"

// Every page the cache knows about — resident, or a 2Q ghost — is one
// node of a slab sized when the cache is built. Resident pages are found
// through one open-addressed index from page number to slot (2Q keeps
// its ghosts in a second one, twoq.go); the replacement queues are
// intrusive lists threaded through the nodes, so a hit, a miss, an
// eviction and a ghost promotion move slot numbers around and allocate
// nothing.

const nilSlot = int32(-1)

// Which list a node is on.
const (
	onFree  uint8 = iota
	onA1in        // 2Q probation FIFO
	onAm          // 2Q main LRU
	onGhost       // 2Q A1out: remembered, not resident
)

type node struct {
	lpn        int64
	prev, next int32
	queue      uint8
	dirty      bool
}

// queue is one intrusive list: head is the newest / most recently used
// node, tail the next victim.
type queue struct {
	head, tail int32
	n          int
}

type slab struct {
	nodes []node
	free  int32             // free nodes, chained through next
	index pool.Index[int32] // resident page -> slot
}

// newSlab returns a slab of resident + ghosts nodes, all free.
func newSlab(resident, ghosts int) slab {
	n := resident + ghosts
	s := slab{nodes: make([]node, n), free: nilSlot, index: pool.NewIndex[int32](resident)}
	for i := n - 1; i >= 0; i-- {
		s.nodes[i].next = s.free
		s.free = int32(i)
	}
	return s
}

func emptyQueue() queue { return queue{head: nilSlot, tail: nilSlot} }

// alloc makes lpn resident in a free node at the head of q. The slab is
// sized so that one is always free.
func (s *slab) alloc(lpn int64, q *queue, which uint8) int32 {
	slot := s.free
	n := &s.nodes[slot]
	s.free = n.next
	n.lpn, n.dirty = lpn, false
	s.index.Put(lpn, slot)
	s.pushFront(q, slot, which)
	return slot
}

// drop forgets a resident page whose node is on no list.
func (s *slab) drop(slot int32) {
	s.index.Delete(s.nodes[slot].lpn)
	s.release(slot)
}

// release returns a node that is on no list, and in no index, to the
// free chain.
func (s *slab) release(slot int32) {
	n := &s.nodes[slot]
	n.queue, n.dirty = onFree, false
	n.next = s.free
	s.free = slot
}

func (s *slab) pushFront(q *queue, slot int32, which uint8) {
	n := &s.nodes[slot]
	n.queue = which
	n.prev, n.next = nilSlot, q.head
	if q.head != nilSlot {
		s.nodes[q.head].prev = slot
	} else {
		q.tail = slot
	}
	q.head = slot
	q.n++
}

func (s *slab) unlink(q *queue, slot int32) {
	n := &s.nodes[slot]
	if n.prev != nilSlot {
		s.nodes[n.prev].next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nilSlot {
		s.nodes[n.next].prev = n.prev
	} else {
		q.tail = n.prev
	}
	q.n--
}

func (s *slab) moveToFront(q *queue, slot int32) {
	if q.head == slot {
		return
	}
	s.unlink(q, slot)
	s.pushFront(q, slot, s.nodes[slot].queue)
}

// popTail unlinks q's tail and returns it with what the cache needs to
// know about an evicted page.
func (s *slab) popTail(q *queue) (slot int32, lpn int64, dirty bool) {
	slot = q.tail
	s.unlink(q, slot)
	n := &s.nodes[slot]
	return slot, n.lpn, n.dirty
}
