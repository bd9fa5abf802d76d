package pool

import "testing"

func TestRingFIFOAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < round%5+1 && r.Len() > 0; i++ {
			if got := r.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}

func TestRingPushFront(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	r.Pop()
	r.PushFront(-1)
	r.PushFront(-2)
	for _, w := range []int{-2, -1, 1, 2, 3, 4} {
		if got := r.Pop(); got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
}

// The memory-pinning bug this type replaces: s = s[1:] neither clears
// the popped slot nor reuses the array.
func TestRingZeroesVacatedSlotsAndStaysBounded(t *testing.T) {
	var r Ring[*int]
	const peak = 6
	for i := 0; i < 10000; i++ {
		for r.Len() < peak {
			r.Push(new(int))
		}
		r.Pop()
	}
	if r.Cap() > 2*peak {
		t.Fatalf("capacity %d after 10000 cycles at peak length %d", r.Cap(), peak)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after the ring drained", i)
		}
	}
}

func TestFreeListLIFOAndCap(t *testing.T) {
	var l FreeList[int]
	if l.Get() != nil {
		t.Fatal("empty list returned a record")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if l.Get() != b || l.Get() != a || l.Get() != nil {
		t.Fatal("free list is not LIFO")
	}

	restore := LimitFreeListsForTest(1)
	l.Put(a)
	l.Put(b) // dropped: the list is at its cap
	if l.Len() != 1 || l.Get() != a || l.Get() != nil {
		t.Fatal("capped list kept more than one record")
	}
	restore()
	l.Put(a)
	l.Put(b)
	if l.Len() != 2 {
		t.Fatal("restore did not lift the cap")
	}
}
