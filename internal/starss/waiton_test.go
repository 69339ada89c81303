package starss

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestWaitOnKeys(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 4}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			var aDone, bDone atomic.Bool
			block := make(chan struct{})
			rt.MustSubmit(Task{
				Deps: []Dep{Out("a")},
				Do:   do(func() { aDone.Store(true) }),
			})
			rt.MustSubmit(Task{
				Deps: []Dep{Out("b")},
				Do:   do(func() { <-block; bDone.Store(true) }),
			})
			// Waiting on "a" must not wait for the blocked "b" task.
			rt.WaitOn(context.Background(), "a")
			if !aDone.Load() {
				t.Fatal("WaitOn(a) returned before a's task finished")
			}
			if bDone.Load() {
				t.Fatal("b finished unexpectedly early")
			}
			close(block)
			rt.WaitOn(context.Background(), "b")
			if !bDone.Load() {
				t.Fatal("WaitOn(b) returned before b's task finished")
			}
		})
	}
}

func TestWaitOnUnusedKeyReturnsImmediately(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer mustClose(t, rt)
	rt.WaitOn(context.Background(), "never-used") // must not hang
	rt.WaitOn(context.Background())               // empty key set is a no-op
}

func TestWaitOnAfterClose(t *testing.T) {
	// Regression: WaitOn used to return silently after shutdown; it must
	// report ErrStopped instead of pretending the keys went quiet.
	rt := New(Config{Workers: 1})
	mustClose(t, rt)
	if err := rt.WaitOn(context.Background(), "x"); err != ErrStopped {
		t.Fatalf("WaitOn after Close = %v, want ErrStopped", err)
	}
	if err := rt.Wait(context.Background()); err != ErrStopped {
		t.Fatalf("Wait after Close = %v, want ErrStopped", err)
	}
}
