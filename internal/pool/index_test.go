package pool

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

// checkIndex holds the index's layout to its invariants: Len counts the
// used slots, and no key sits behind an empty slot on its probe from its
// home (the hole a deletion without the backward shift would leave).
func checkIndex(t testing.TB, x *Index[int32], oracle map[int64]int32) {
	t.Helper()
	mask, used := len(x.slots)-1, 0
	for i, s := range x.slots {
		if !s.used {
			if s != (indexSlot[int32]{}) {
				t.Fatalf("empty slot %d holds %+v", i, s)
			}
			continue
		}
		used++
		for j := x.home(s.key); j != i; j = (j + 1) & mask {
			if !x.slots[j].used {
				t.Fatalf("key %d at slot %d: empty slot %d on its probe from home %d", s.key, i, j, x.home(s.key))
			}
		}
		if v, ok := oracle[s.key]; !ok || v != s.val {
			t.Fatalf("slot %d holds %d -> %d, oracle %d, %v", i, s.key, s.val, v, ok)
		}
	}
	if used != x.Len() || used != len(oracle) {
		t.Fatalf("%d used slots, Len %d, oracle %d", used, x.Len(), len(oracle))
	}
}

// wrapsTableEnd reports whether key's cluster runs from key's slot over
// the table's end: deleting key then shifts an entry from the front of
// the table into the back.
func wrapsTableEnd(x *Index[int32], key int64) bool {
	i, _ := x.find(key)
	mask := len(x.slots) - 1
	for j := i; x.slots[j].used; j = (j + 1) & mask {
		if j == mask && x.slots[0].used {
			return true
		}
	}
	return false
}

// TestIndexMatchesMap drives an index and a Go map with 10^6 seeded
// Put / Get / Ref / Delete operations on a table kept at its capacity,
// over keys of which a third hash into the table's last slots, so that
// clusters wrap its end and deletions shift entries across it. Every
// answer must agree; the layout is audited every 1000 steps.
func TestIndexMatchesMap(t *testing.T) {
	const capacity = 64 // 128 slots: half full at capacity
	x := NewIndex[int32](capacity)
	src := rand.New(rand.NewPCG(1, 2))
	var keys []int64
	for len(keys) < 3*capacity {
		k := int64(src.Uint64())
		if len(keys)%3 != 0 || x.home(k) >= len(x.slots)-3 {
			keys = append(keys, k)
		}
	}
	keys = append(keys, 0, -1, 1<<63-1, -1<<63)
	oracle := make(map[int64]int32)
	wrapped := 0
	for step := 0; step < 1_000_000; step++ {
		k := keys[src.IntN(len(keys))]
		v, inMap := oracle[k]
		switch op := src.IntN(10); {
		case op < 5 && (inMap || len(oracle) < capacity):
			val := int32(src.Uint32())
			x.Put(k, val)
			oracle[k] = val
		case op < 8:
			if inMap && wrapsTableEnd(&x, k) {
				wrapped++
			}
			if got, ok := x.Delete(k); ok != inMap || got != v {
				t.Fatalf("step %d: Delete(%d) = %d, %v; map %d, %v", step, k, got, ok, v, inMap)
			}
			delete(oracle, k)
		case op < 9:
			if got, ok := x.Get(k); ok != inMap || got != v {
				t.Fatalf("step %d: Get(%d) = %d, %v; map %d, %v", step, k, got, ok, v, inMap)
			}
		default:
			p := x.Ref(k)
			if (p != nil) != inMap || (p != nil && *p != v) {
				t.Fatalf("step %d: Ref(%d) = %v; map %d, %v", step, k, p, v, inMap)
			}
			if p != nil {
				*p = v + 1
				oracle[k] = v + 1
			}
		}
		if x.Len() != len(oracle) {
			t.Fatalf("step %d: Len %d, map %d", step, x.Len(), len(oracle))
		}
		if step%1000 == 0 {
			checkIndex(t, &x, oracle)
		}
	}
	checkIndex(t, &x, oracle)
	if wrapped < 1000 {
		t.Fatalf("only %d deletions shifted a cluster across the table end", wrapped)
	}
}

func TestIndexPutIntoFullPanics(t *testing.T) {
	x := NewIndex[int32](2)
	x.Put(1, 1)
	x.Put(2, 2)
	x.Put(2, 3) // an overwrite needs no room
	defer func() {
		if recover() == nil {
			t.Fatal("a third key went into an index of capacity 2")
		}
	}()
	x.Put(3, 3)
}

// The index allocates nothing once built.
func TestIndexAllocs(t *testing.T) {
	x := NewIndex[int32](1024)
	src := rand.New(rand.NewPCG(3, 4))
	n := testing.AllocsPerRun(100_000, func() {
		k := int64(src.IntN(2048))
		if x.Len() < 1024 {
			x.Put(k, int32(k))
		}
		x.Get(k + 1)
		x.Delete(k + 2)
	})
	if n != 0 {
		t.Fatalf("%v allocations per Put/Get/Delete, want 0", n)
	}
}

// FuzzIndexMatchesMap reads the input as a sequence of operations — one
// byte naming Put, Delete or Get, one picking a key from a set chosen to
// collide in a 16-slot table — and holds the index to a Go map after
// each, including the panic of a Put into a full index.
func FuzzIndexMatchesMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 1, 3, 2, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const capacity = 8
		if len(ops) > 256 {
			// 128 operations fill and drain the 16-slot table many times
			// over; longer inputs left the fuzzer minimising, not running.
			ops = ops[:256]
		}
		x := NewIndex[int32](capacity)
		var keys [32]int64
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64([]byte{byte(i), 0x5a, byte(i * 7), 0, 0, 0, byte(i % 3), byte(i % 2 * 0x80)}))
		}
		oracle := make(map[int64]int32)
		for i := 0; i+1 < len(ops); i += 2 {
			k := keys[ops[i+1]%byte(len(keys))]
			v, inMap := oracle[k]
			switch ops[i] % 3 {
			case 0:
				if !inMap && len(oracle) == capacity {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("op %d: Put(%d) into a full index did not panic", i/2, k)
							}
						}()
						x.Put(k, int32(i))
					}()
					continue
				}
				x.Put(k, int32(i))
				oracle[k] = int32(i)
			case 1:
				if got, ok := x.Delete(k); ok != inMap || got != v {
					t.Fatalf("op %d: Delete(%d) = %d, %v; map %d, %v", i/2, k, got, ok, v, inMap)
				}
				delete(oracle, k)
			default:
				if got, ok := x.Get(k); ok != inMap || got != v {
					t.Fatalf("op %d: Get(%d) = %d, %v; map %d, %v", i/2, k, got, ok, v, inMap)
				}
			}
			checkIndex(t, &x, oracle)
		}
	})
}
