package sim

import (
	"testing"
	"testing/quick"
)

func TestResourceBasic(t *testing.T) {
	r := NewResource("mem", 2)
	if r.Cap() != 2 || r.Name() != "mem" {
		t.Fatalf("cap/name = %d/%q", r.Cap(), r.Name())
	}
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 || r.InUse() != 2 {
		t.Fatalf("granted=%d inUse=%d", granted, r.InUse())
	}
	r.Acquire(func() { granted++ }) // queued
	if granted != 2 || r.QueueLen() != 1 {
		t.Fatalf("granted=%d queue=%d", granted, r.QueueLen())
	}
	r.Release()
	if granted != 3 || r.InUse() != 2 || r.QueueLen() != 0 {
		t.Fatalf("after release: granted=%d inUse=%d queue=%d", granted, r.InUse(), r.QueueLen())
	}
	r.Release()
	r.Release()
	if r.InUse() != 0 {
		t.Fatalf("inUse = %d, want 0", r.InUse())
	}
	if r.Waits() != 1 || r.Acquires() != 3 || r.HighWater() != 2 {
		t.Fatalf("waits=%d acquires=%d hw=%d", r.Waits(), r.Acquires(), r.HighWater())
	}
}

func TestResourceFIFOGrantOrder(t *testing.T) {
	r := NewResource("ordered", 1)
	r.Acquire(func() {})
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() { order = append(order, i) })
	}
	for i := 0; i < 5; i++ {
		r.Release()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func TestResourceTryAcquire(t *testing.T) {
	r := NewResource("try", 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire succeeded with no free slot")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	r := NewResource("over", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	r.Release()
}

// Property: with S slots and any acquire/release trace, holders never exceed
// S and every waiter is eventually granted once enough releases happen.
func TestResourceInvariantProperty(t *testing.T) {
	prop := func(ops []bool, slotsRaw uint8) bool {
		slots := int(slotsRaw%8) + 1
		r := NewResource("prop", slots)
		granted, outstanding := 0, 0
		for _, acq := range ops {
			if acq {
				r.Acquire(func() { granted++ })
				outstanding++
			} else if granted > 0 && r.InUse() > 0 {
				r.Release()
			}
			if r.InUse() > slots {
				return false
			}
			if granted > outstanding {
				return false
			}
		}
		// Drain: release everything; all waiters must be granted.
		for r.InUse() > 0 {
			r.Release()
		}
		return granted == outstanding && r.QueueLen() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
