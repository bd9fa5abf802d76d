package pool

// fibonacci is 2^64 / phi: multiplying a key by it and keeping the top
// bits spreads consecutive keys (runs of page numbers) evenly over the
// table (Knuth, TAOCP vol. 3, §6.4).
const fibonacci = 0x9E3779B97F4A7C15

// Index is a fixed-capacity hash table from int64 keys to values of type
// V, for the datapath's per-page lookups. It is open-addressed with
// linear probing; the table is sized at construction so that it is never
// more than half full, and a deletion shifts the entries behind it back
// instead of leaving a tombstone, so every probe ends at the first empty
// slot. Nothing is allocated after NewIndex.
type Index[V any] struct {
	slots []indexSlot[V] // len(slots) is a power of two
	shift uint           // 64 - log2(len(slots)): the hash keeps the top bits
	n     int
	max   int
}

type indexSlot[V any] struct {
	key  int64
	val  V
	used bool
}

// NewIndex returns an empty index holding up to capacity keys.
func NewIndex[V any](capacity int) Index[V] {
	size, shift := 2, uint(63)
	for size < 2*capacity {
		size, shift = size*2, shift-1
	}
	return Index[V]{slots: make([]indexSlot[V], size), shift: shift, max: capacity}
}

// Len returns the number of keys held.
func (x *Index[V]) Len() int { return x.n }

func (x *Index[V]) home(key int64) int { return int(uint64(key) * fibonacci >> x.shift) }

// find returns the slot holding key, or the empty slot its probe ends at.
func (x *Index[V]) find(key int64) (i int, ok bool) {
	mask := len(x.slots) - 1
	for i = x.home(key); ; i = (i + 1) & mask {
		if s := &x.slots[i]; !s.used || s.key == key {
			return i, s.used
		}
	}
}

// Get returns key's value and whether key is present (the zero value if
// not).
func (x *Index[V]) Get(key int64) (V, bool) {
	i, ok := x.find(key)
	return x.slots[i].val, ok
}

// Ref returns a pointer to key's value, or nil when key is absent. The
// pointer is good until the next Put or Delete, which may move values.
func (x *Index[V]) Ref(key int64) *V {
	if i, ok := x.find(key); ok {
		return &x.slots[i].val
	}
	return nil
}

// Put sets key's value, adding key if it is absent. Adding a key to a
// full index panics: the owner sized it for its own population.
func (x *Index[V]) Put(key int64, v V) {
	i, ok := x.find(key)
	if !ok {
		if x.n == x.max {
			panic("pool: Put into a full index")
		}
		x.n++
		x.slots[i].key, x.slots[i].used = key, true
	}
	x.slots[i].val = v
}

// Delete removes key and returns the value it had, reporting whether it
// was present. The entries that probed past its slot move back so that
// no probe sequence has a hole.
func (x *Index[V]) Delete(key int64) (v V, ok bool) {
	i, ok := x.find(key)
	if !ok {
		return v, false
	}
	v = x.slots[i].val
	x.n--
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j]: it would then sit before its home.
		if (j-x.home(x.slots[j].key))&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = indexSlot[V]{}
	return v, true
}
