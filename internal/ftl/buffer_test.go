package ftl

import (
	"errors"
	"testing"
)

func TestBufferAdmission(t *testing.T) {
	b := mustBuffer(t, 2)
	if !b.Put(1, 1) || !b.Put(2, 2) {
		t.Fatal("admission to empty buffer failed")
	}
	if b.Put(3, 3) {
		t.Fatal("admission to full buffer succeeded")
	}
	if b.Occupied() != 2 || b.Utilization() != 1 {
		t.Errorf("occupied=%d util=%v", b.Occupied(), b.Utilization())
	}
	// Overwrite of a buffered page coalesces even when full.
	if !b.Put(1, 4) {
		t.Fatal("coalescing overwrite rejected")
	}
	if b.Occupied() != 2 {
		t.Errorf("coalesce changed occupancy: %d", b.Occupied())
	}
}

func TestBufferFlushSettle(t *testing.T) {
	b := mustBuffer(t, 8)
	for lpn := LPN(0); lpn < 5; lpn++ {
		b.Put(lpn, uint64(lpn)+1)
	}
	g := b.TakeFlushGroup(nil, 3)
	if len(g) != 3 || g[0].LPN != 0 || g[2].LPN != 2 {
		t.Fatalf("group = %+v", g)
	}
	if b.Flushable() != 2 {
		t.Errorf("flushable = %d", b.Flushable())
	}
	for _, h := range g {
		if !b.Settle(h) {
			t.Errorf("settle of %d reported stale", h.LPN)
		}
	}
	if b.Occupied() != 2 {
		t.Errorf("occupied = %d after settle", b.Occupied())
	}
	if b.Contains(0) {
		t.Error("settled page still buffered")
	}
}

func TestBufferOverwriteInFlight(t *testing.T) {
	b := mustBuffer(t, 8)
	b.Put(7, 1)
	g := b.TakeFlushGroup(nil, 3)
	if len(g) != 1 {
		t.Fatalf("group = %+v", g)
	}
	// Overwrite while the program is in flight.
	if !b.Put(7, 2) {
		t.Fatal("in-flight overwrite rejected")
	}
	// The flushed (stale) copy must not be mapped, and the page must be
	// queued again with its slot intact.
	if b.Settle(g[0]) {
		t.Error("stale flush reported current")
	}
	if !b.Contains(7) || b.Occupied() != 1 || b.Flushable() != 1 {
		t.Errorf("entry not requeued: occupied=%d flushable=%d", b.Occupied(), b.Flushable())
	}
	// Second flush carries the new data.
	g2 := b.TakeFlushGroup(nil, 3)
	if !b.Settle(g2[0]) {
		t.Error("fresh flush reported stale")
	}
	if b.Occupied() != 0 {
		t.Errorf("occupied = %d", b.Occupied())
	}
}

func TestBufferRequeue(t *testing.T) {
	b := mustBuffer(t, 8)
	for lpn := LPN(0); lpn < 4; lpn++ {
		b.Put(lpn, uint64(lpn)+1)
	}
	g := b.TakeFlushGroup(nil, 3)
	b.Requeue(g)
	if b.Flushable() != 4 {
		t.Fatalf("flushable = %d after requeue", b.Flushable())
	}
	// Requeued entries flush first, in their original order.
	g2 := b.TakeFlushGroup(nil, 3)
	if g2[0].LPN != 0 || g2[1].LPN != 1 || g2[2].LPN != 2 {
		t.Errorf("requeued order = %+v", g2)
	}
	if b.Occupied() != 4 {
		t.Errorf("requeue changed occupancy: %d", b.Occupied())
	}
}

func mustBuffer(t *testing.T, capacity int) *WriteBuffer {
	t.Helper()
	b, err := NewWriteBuffer(capacity)
	if err != nil {
		t.Fatalf("NewWriteBuffer(%d): %v", capacity, err)
	}
	return b
}

func TestBufferRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		b, err := NewWriteBuffer(capacity)
		if !errors.Is(err, ErrBufferCapacity) {
			t.Errorf("NewWriteBuffer(%d) err = %v, want ErrBufferCapacity", capacity, err)
		}
		if b != nil {
			t.Errorf("NewWriteBuffer(%d) returned a buffer with its error", capacity)
		}
	}
}
