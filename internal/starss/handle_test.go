package starss

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Tests for the slimmed Handle: the lazily created done channel, the end
// cell that carries the outcome and error, the Err/Wait fast path and the
// on-demand name.

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestHandleDoneBeforeAndAfterCompletion: whether Done is first asked for
// before the task ends (the very channel handed out is then closed by it) or
// only after (no channel was ever made, and the one returned is closed all
// the same), each handle reports its own end: an executed one the end cell
// every ok handle shares, a failed or skipped one a cell of its own with its
// outcome and error.
func TestHandleDoneBeforeAndAfterCompletion(t *testing.T) {
	skip := fmt.Errorf("%w: %w", ErrDependencyFailed, errBoom)
	for _, end := range []struct {
		o   Outcome
		err error
	}{{Executed, nil}, {Failed, errBoom}, {Skipped, skip}} {
		for _, early := range []bool{true, false} {
			h := &Handle{}
			var ch <-chan struct{}
			if early {
				ch = h.Done()
				if isClosed(ch) {
					t.Fatal("pending handle's Done channel is closed")
				}
				if again := h.Done(); again != ch {
					t.Fatal("two Done calls on a pending handle returned different channels")
				}
				if h.Outcome() != Pending || h.Err() != nil {
					t.Errorf("pending handle with a Done channel: %v, %v", h.Outcome(), h.Err())
				}
			}
			h.complete(end.o, end.err)
			if early && !isClosed(ch) {
				t.Errorf("%v: Done channel requested before completion was not closed by it", end.o)
			}
			if !isClosed(h.Done()) {
				t.Errorf("%v, early=%v: Done channel of a completed handle is open", end.o, early)
			}
			if h.Outcome() != end.o || h.Err() != end.err {
				t.Errorf("%v, early=%v: handle reports %v, %v", end.o, early, h.Outcome(), h.Err())
			}
			if err := h.Wait(context.Background()); err != end.err {
				t.Errorf("%v, early=%v: Wait = %v", end.o, early, err)
			}
			if shared := h.end.Load() == okEnd; shared != (end.o == Executed) {
				t.Errorf("%v, early=%v: holds the shared ok end: %v", end.o, early, shared)
			}
		}
	}
}

// TestHandleOkEndAllocatesNothing: publishing an ok end is one pointer swap
// to the shared cell — the common path allocates nothing.
func TestHandleOkEndAllocatesNothing(t *testing.T) {
	var h Handle
	if got := testing.AllocsPerRun(100, func() {
		h.end.Store(nil)
		h.complete(Executed, nil)
	}); got != 0 {
		t.Errorf("publishing an ok end: %.1f allocations, want 0", got)
	}
}

// TestHandleWaitNilContext: Wait, like every admission, takes a nil ctx for
// context.Background() — on a pending handle too, where it blocks until the
// task ends and returns its error.
func TestHandleWaitNilContext(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			h, err := rt.Submit(context.Background(), Task{Do: func(context.Context) error { <-gate; return errBoom }})
			if err != nil {
				t.Fatal(err)
			}
			// Release the task only once Wait has asked for the done channel,
			// so Wait meets the handle pending.
			go func() {
				for h.end.Load() == nil {
					runtime.Gosched()
				}
				close(gate)
			}()
			var noCtx context.Context
			if err := h.Wait(noCtx); err != errBoom {
				t.Errorf("Wait(nil) on a pending handle = %v, want errBoom", err)
			}
			if err := h.Wait(noCtx); err != errBoom {
				t.Errorf("Wait(nil) on a finished handle = %v, want errBoom", err)
			}
			if err := rt.Close(); !errors.Is(err, errBoom) {
				t.Errorf("Close = %v, want errBoom", err)
			}
		})
	}
}

// TestHandleConcurrentDoneWaitComplete races many Done/Wait/Err/Outcome
// callers against complete. Every waiter must wake with the full error — Err
// and Outcome must never observe a half-published end, nor an outcome
// without its error — and every channel must end closed.
func TestHandleConcurrentDoneWaitComplete(t *testing.T) {
	for round := 0; round < 1000; round++ {
		h := &Handle{}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					if err := h.Wait(context.Background()); err != errBoom {
						t.Errorf("round %d: Wait = %v, want errBoom", round, err)
					}
				case 1:
					// Poll Outcome: Pending until, in one step, it is Failed,
					// and from then on Err is the final error.
					for {
						o := h.Outcome()
						if o == Pending {
							runtime.Gosched()
							continue
						}
						if o != Failed {
							t.Errorf("round %d: Outcome observed %v", round, o)
						}
						if err := h.Err(); err != errBoom {
							t.Errorf("round %d: Err after Outcome %v = %v, want errBoom", round, o, err)
						}
						break
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

// TestHandleDoneFreesDeps: the runtime reads a task's Deps until the task's
// handle reports done, and not after, so a caller may overwrite the slice
// once Wait returns. In each round the second task queues behind the first
// on both keys, so the first's Handle Finished releases it; under -race, a
// finish path that read Deps after publishing the handle races with the
// overwrite.
func TestHandleDoneFreesDeps(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			ctx := context.Background()
			for round := range 200 {
				first := []Dep{InOut(addrA), In(addrB)}
				second := []Dep{In(addrA), InOut(addrB)}
				h1 := rt.MustSubmit(Task{Deps: first, Do: do(func() {})})
				h2 := rt.MustSubmit(Task{Deps: second, Do: do(func() {})})
				for _, w := range []struct {
					h    *Handle
					deps []Dep
				}{{h1, first}, {h2, second}} {
					if err := w.h.Wait(ctx); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					for i := range w.deps {
						w.deps[i] = Dep{Addr: ^uint64(0), Mode: ModeOut}
					}
				}
			}
		})
	}
}
