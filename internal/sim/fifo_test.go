package sim

import (
	"testing"
	"testing/quick"
)

func TestFIFOBasic(t *testing.T) {
	f := NewFIFO[int]("test", 3)
	if f.Name() != "test" || f.Cap() != 3 {
		t.Fatalf("name/cap = %q/%d", f.Name(), f.Cap())
	}
	if !f.Empty() || f.Full() {
		t.Fatal("new FIFO should be empty and not full")
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("Pop on empty FIFO returned ok")
	}
	for i := 1; i <= 3; i++ {
		if !f.Push(i) {
			t.Fatalf("Push(%d) failed", i)
		}
	}
	if !f.Full() {
		t.Fatal("FIFO should be full")
	}
	if f.Push(4) {
		t.Fatal("Push succeeded on full FIFO")
	}
	if f.FullStalls() != 1 {
		t.Fatalf("FullStalls = %d, want 1", f.FullStalls())
	}
	for i := 1; i <= 3; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if f.HighWater() != 3 {
		t.Fatalf("HighWater = %d, want 3", f.HighWater())
	}
	if f.Pushes() != 3 {
		t.Fatalf("Pushes = %d, want 3", f.Pushes())
	}
}

func TestFIFOPeek(t *testing.T) {
	f := NewFIFO[string]("peek", 2)
	if _, ok := f.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
	f.MustPush("a")
	f.MustPush("b")
	if v, ok := f.Peek(); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if f.Len() != 2 {
		t.Fatalf("Peek must not consume; Len = %d", f.Len())
	}
}

func TestFIFOCallbacks(t *testing.T) {
	f := NewFIFO[int]("cb", 2)
	var data, space int
	f.OnData(func() { data++ })
	f.OnSpace(func() { space++ })
	f.Push(1)
	f.Push(2)
	f.Push(3) // full: no callback
	if data != 2 {
		t.Fatalf("data callbacks = %d, want 2", data)
	}
	f.Pop()
	if space != 1 {
		t.Fatalf("space callbacks = %d, want 1", space)
	}
}

func TestFIFOMustPushPanics(t *testing.T) {
	f := NewFIFO[int]("mp", 1)
	f.MustPush(1)
	defer func() {
		if recover() == nil {
			t.Error("MustPush on full FIFO did not panic")
		}
	}()
	f.MustPush(2)
}

func TestFIFOZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFIFO(0) did not panic")
		}
	}()
	NewFIFO[int]("bad", 0)
}

func TestFIFOCompaction(t *testing.T) {
	// Force many push/pop cycles so the ring's head wraps at every offset
	// (capacity 8, three pops a round) and verify ordering survives it.
	f := NewFIFO[int]("compact", 8)
	next, expect := 0, 0
	for round := 0; round < 1000; round++ {
		for f.Push(next) {
			next++
		}
		for i := 0; i < 3; i++ {
			v, ok := f.Pop()
			if !ok || v != expect {
				t.Fatalf("round %d: Pop = %d,%v, want %d,true", round, v, ok, expect)
			}
			expect++
		}
	}
}

// Property: a FIFO behaves exactly like a bounded slice queue for any
// push/pop interleaving.
func TestFIFOModelProperty(t *testing.T) {
	prop := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		f := NewFIFO[int]("prop", capacity)
		var model []int
		n := 0
		for _, push := range ops {
			if push {
				want := len(model) < capacity
				got := f.Push(n)
				if got != want {
					return false
				}
				if got {
					model = append(model, n)
				}
				n++
			} else {
				v, ok := f.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if f.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
