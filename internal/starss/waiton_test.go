package starss

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWaitOnKeys(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 4}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			var aDone, bDone atomic.Bool
			block := make(chan struct{})
			rt.MustSubmit(Task{
				Deps: []Dep{Out(addrA)},
				Do:   do(func() { aDone.Store(true) }),
			})
			rt.MustSubmit(Task{
				Deps: []Dep{Out(addrB)},
				Do:   do(func() { <-block; bDone.Store(true) }),
			})
			// Waiting on "a" must not wait for the blocked "b" task.
			rt.WaitOn(context.Background(), addrA)
			if !aDone.Load() {
				t.Fatal("WaitOn(a) returned before a's task finished")
			}
			if bDone.Load() {
				t.Fatal("b finished unexpectedly early")
			}
			close(block)
			rt.WaitOn(context.Background(), addrB)
			if !bDone.Load() {
				t.Fatal("WaitOn(b) returned before b's task finished")
			}
		})
	}
}

func TestWaitOnUnusedKeyReturnsImmediately(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer mustClose(t, rt)
	rt.WaitOn(context.Background(), addrUnused) // must not hang
	rt.WaitOn(context.Background())             // empty key set is a no-op
}

func TestWaitOnAfterClose(t *testing.T) {
	// Regression: WaitOn used to return silently after shutdown; it must
	// report ErrStopped instead of pretending the keys went quiet.
	rt := New(Config{Workers: 1})
	mustClose(t, rt)
	if err := rt.WaitOn(context.Background(), addrX); err != ErrStopped {
		t.Fatalf("WaitOn after Close = %v, want ErrStopped", err)
	}
	if err := rt.Wait(context.Background()); err != ErrStopped {
		t.Fatalf("Wait after Close = %v, want ErrStopped", err)
	}
}

// TestWaitOnFromTaskBody: a WaitOn is a task without a body, finished by
// whoever finds it ready, so it needs no worker — the only one there is may
// be the caller.
func TestWaitOnFromTaskBody(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 1}) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var wrote atomic.Bool
			rt.MustSubmit(Task{Deps: []Dep{Out(addrX)}, Do: do(func() { wrote.Store(true) })})
			h := rt.MustSubmit(Task{Deps: []Dep{Out(addrY)}, Do: func(context.Context) error {
				// On the worker: addrX is behind us in the ready queue or done, addrZ unused.
				if err := rt.WaitOn(ctx, addrX, addrZ); err != nil {
					return err
				}
				if !wrote.Load() {
					return errors.New("WaitOn(x) returned before x's writer ran")
				}
				return nil
			}})
			if err := h.Wait(ctx); err != nil {
				t.Fatalf("the body that called WaitOn: %v", err)
			}
			mustClose(t, rt)
			if st := rt.Stats(); st.Submitted != 3 || st.Executed != 3 {
				t.Fatalf("stats = %v, want the two tasks and the WaitOn executed", st)
			}
		})
	}
}

// TestWaitOnPoisonedKey: the WaitOn's task is skipped like any dependent of a
// failed task, and that is the runtime's count to keep, not the caller's
// error: the wait is over either way.
func TestWaitOnPoisonedKey(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			boom := errors.New("boom")
			gate := make(chan struct{})
			failed := rt.MustSubmit(Task{Deps: []Dep{Out(addrK)}, Do: func(context.Context) error { <-gate; return boom }})
			waited := make(chan error, 1)
			go func() { waited <- rt.WaitOn(ctx, addrK) }()
			waitFor(t, "the WaitOn's task to queue behind the writer", func() bool { return rt.Stats().Hazards == 1 })
			close(gate)
			if err := <-waited; err != nil {
				t.Fatalf("WaitOn on a poisoned key = %v, want nil", err)
			}
			if !failed.finished() {
				t.Fatal("WaitOn returned before the failed writer's handle was published")
			}
			if err := rt.Close(); !errors.Is(err, boom) {
				t.Fatalf("Close = %v, want the writer's failure", err)
			}
			if st := rt.Stats(); st.Failed != 1 || st.Skipped != 1 || st.Executed != 0 {
				t.Fatalf("stats = %v, want the writer failed and the WaitOn skipped", st)
			}
		})
	}
}

// TestWaitOnSeesPublishedTask: a task's keys stay filed until its handle is
// published, so a WaitOn admitted while the task sits between its scope hook
// and its handle queues behind it instead of finding its key free and
// returning early. The scope's hook holds the writer exactly there. On the
// maestro, which runs the hook itself, the WaitOn is not even admitted until
// the hook lets go. The writer's finisher releases the WaitOn and finishes it
// on the spot, so the WaitOn's own pass through the hook, on that same
// goroutine, sees whether the writer published before it released.
func TestWaitOnSeesPublishedTask(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			ctx := context.Background()
			held, release := make(chan struct{}), make(chan struct{})
			letGo := sync.OnceFunc(func() { close(release) })
			defer letGo()
			var first atomic.Bool
			var writer *Handle
			var inHook Outcome // the writer's outcome as the WaitOn passed the hook
			s := rt.Scope("held")
			s.SetOnDone(func(error) {
				if first.CompareAndSwap(false, true) {
					close(held)
					<-release
					return
				}
				inHook = writer.Outcome()
			})
			writer, err := s.Submit(ctx, Task{Deps: []Dep{Out(7)}, Do: do(func() {})})
			if err != nil {
				t.Fatal(err)
			}
			<-held
			type result struct {
				err    error
				writer Outcome // the writer's outcome as the WaitOn returned
			}
			waited := make(chan result, 1)
			go func() {
				err := s.WaitOn(ctx, 7)
				waited <- result{err, writer.Outcome()}
			}()
			// The sharded runtime admits the WaitOn at once, and it must queue:
			// a hazard. The maestro admits nothing while it is in the hook, so
			// it gets the time an early return would take.
			deadline := time.Now().Add(100 * time.Millisecond)
			for rt.Stats().Hazards == 0 && len(waited) == 0 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			select {
			case r := <-waited:
				t.Fatalf("Scope.WaitOn returned (err %v) before the writer's handle was published", r.err)
			default:
			}
			letGo()
			r := <-waited
			if r.err != nil {
				t.Fatalf("Scope.WaitOn = %v, want nil", r.err)
			}
			if r.writer != Executed || inHook != Executed {
				t.Fatalf("the writer's outcome was %d when Scope.WaitOn returned and %d when it finished, want Executed (%d)", r.writer, inHook, Executed)
			}
		})
	}
}
