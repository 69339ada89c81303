package starss

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// Tests for the slimmed Handle: the lazily created done channel, the atomic
// Err/Wait fast path and the on-demand name.

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestHandleDoneBeforeAndAfterCompletion(t *testing.T) {
	// Requested before completion: the very channel handed out is closed.
	early := &Handle{}
	ch := early.Done()
	if isClosed(ch) {
		t.Fatal("pending handle's Done channel is closed")
	}
	if again := early.Done(); again != ch {
		t.Fatal("two Done calls on a pending handle returned different channels")
	}
	early.complete(Failed, errBoom)
	if !isClosed(ch) {
		t.Fatal("Done channel requested before completion was not closed by it")
	}
	if !isClosed(early.Done()) || !errors.Is(early.Err(), errBoom) {
		t.Fatalf("completed handle: Done closed=%v, Err=%v", isClosed(early.Done()), early.Err())
	}

	// First requested after completion: no channel was ever made, and the
	// one returned is closed all the same.
	late := &Handle{}
	late.complete(Executed, nil)
	if !isClosed(late.Done()) {
		t.Fatal("Done channel first requested after completion is open")
	}
	if err := late.Wait(context.Background()); err != nil {
		t.Fatalf("Wait on a completed handle = %v", err)
	}
}

// TestHandleConcurrentDoneWaitComplete races many Done/Wait/Err callers
// against complete. Every waiter must wake with the full error — Err must
// never observe a half-published one — and every channel must end closed.
func TestHandleConcurrentDoneWaitComplete(t *testing.T) {
	for round := 0; round < 1000; round++ {
		h := &Handle{}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 2 {
				case 0:
					if err := h.Wait(context.Background()); err != errBoom {
						t.Errorf("round %d: Wait = %v, want errBoom", round, err)
					}
				default:
					ch := h.Done()
					// Poll Err while pending: it is nil until, in one step,
					// it is the final error.
					for !isClosed(ch) {
						if err := h.Err(); err != nil && err != errBoom {
							t.Errorf("round %d: Err observed %v mid-publication", round, err)
						}
					}
					if err := h.Err(); err != errBoom {
						t.Errorf("round %d: Err after Done = %v, want errBoom", round, err)
					}
				}
			}(g)
		}
		h.complete(Failed, errBoom)
		wg.Wait()
		if !isClosed(h.Done()) {
			t.Fatalf("round %d: Done open after complete", round)
		}
	}
}

func TestHandleNameOnDemand(t *testing.T) {
	if got := (&Handle{index: 7}).Name(); got != "task7" {
		t.Errorf("nameless handle Name = %q, want task7", got)
	}
	if got := (&Handle{index: 7, name: "alpha"}).Name(); got != "alpha" {
		t.Errorf("named handle Name = %q, want alpha", got)
	}
	// Through the runtime: nothing is formatted at admission, and failure
	// messages still carry the resolved name.
	rt := New(Config{Workers: 1})
	rt.MustSubmit(Task{Do: do(func() {})})
	h := rt.MustSubmit(Task{Do: func(context.Context) error { panic("x") }})
	if err := rt.Close(); !errors.Is(err, ErrTaskPanicked) {
		t.Fatalf("Close = %v", err)
	}
	if h.name != "" || h.Name() != "task1" {
		t.Errorf("stored name %q, Name() %q; want empty and task1", h.name, h.Name())
	}
	if want := `task "task1"`; !strings.Contains(h.Err().Error(), want) {
		t.Errorf("failure message %q does not name %s", h.Err(), want)
	}
}
