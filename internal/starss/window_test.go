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

// Unit tests for the counted in-flight window, plus the runtime-level
// regression for "in-flight can exceed Window".

func newWindow(limit int64) *window {
	w := &window{}
	w.limit = limit
	return w
}

// waitFor spins until cond holds — an event wait, not a sleep — and fails
// the test if it never does.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// queued reports the wait-list length.
func (w *window) queued() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue)
}

// acquireAsync runs acquire on its own goroutine and delivers the result.
func acquireAsync(ctx context.Context, w *window, stopped <-chan struct{}, n int64) <-chan error {
	res := make(chan error, 1)
	go func() { res <- w.acquire(ctx, stopped, n) }()
	return res
}

func mustNotBeGranted(t *testing.T, who string, res <-chan error) {
	t.Helper()
	select {
	case err := <-res:
		t.Fatalf("%s returned %v while it should still be queued", who, err)
	default:
	}
}

func mustBeGranted(t *testing.T, who string, res <-chan error) {
	t.Helper()
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("%s = %v, want a grant", who, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s was never granted", who)
	}
}

func TestWindowChunkAcquireAllOrNothing(t *testing.T) {
	w := newWindow(8)
	bg := context.Background()
	if err := w.acquire(bg, nil, 5); err != nil {
		t.Fatal(err)
	}
	// Three tokens are free; a chunk of four must take none of them.
	chunk := acquireAsync(bg, w, nil, 4)
	waitFor(t, "the chunk to queue", func() bool { return w.need.Load() == 4 })
	if got := w.used.Load(); got != 5 {
		t.Fatalf("a queued chunk holds tokens: used = %d, want 5", got)
	}
	mustNotBeGranted(t, "chunk", chunk)
	// Release is synchronous about granting: the token that makes the chunk
	// fit hands it all four at once.
	if left := w.release(1); left != 4 {
		t.Fatalf("release reported %d left, want 4", left)
	}
	mustBeGranted(t, "chunk", chunk)
	if got := w.used.Load(); got != 8 {
		t.Fatalf("used = %d after the grant, want 8", got)
	}
	if got := w.max.Load(); got != 8 {
		t.Fatalf("max = %d, want 8", got)
	}
	if w.release(8) != 0 || w.need.Load() != 0 || w.queued() != 0 {
		t.Fatalf("window not empty at the end: used %d need %d queued %d", w.used.Load(), w.need.Load(), w.queued())
	}
}

// TestWindowQueuedChunkServedBeforeLaterSingles: a single Submit that would
// fit still queues behind an earlier chunk, so the chunk cannot starve.
func TestWindowQueuedChunkServedBeforeLaterSingles(t *testing.T) {
	w := newWindow(4)
	bg := context.Background()
	if err := w.acquire(bg, nil, 4); err != nil {
		t.Fatal(err)
	}
	chunk := acquireAsync(bg, w, nil, 3)
	waitFor(t, "the chunk to queue", func() bool { return w.queued() == 1 })
	single := acquireAsync(bg, w, nil, 1)
	waitFor(t, "the single to queue", func() bool { return w.queued() == 2 })

	w.release(1) // one token free: the single would fit, the chunk does not
	mustNotBeGranted(t, "single", single)
	mustNotBeGranted(t, "chunk", chunk)
	if got := w.used.Load(); got != 3 {
		t.Fatalf("used = %d, want 3 (nobody may overtake the queued chunk)", got)
	}
	w.release(2) // three free: the chunk goes first and refills the window
	mustBeGranted(t, "chunk", chunk)
	mustNotBeGranted(t, "single", single)
	if got := w.used.Load(); got != 4 {
		t.Fatalf("used = %d, want 4", got)
	}
	w.release(1)
	mustBeGranted(t, "single", single)
	if w.release(4) != 0 || w.need.Load() != 0 {
		t.Fatalf("window not empty at the end: used %d need %d", w.used.Load(), w.need.Load())
	}
}

// TestWindowTryAcquireNeverOvertakes: the admission that does not wait
// takes its tokens only when nobody is queued — even a demand that would
// fit stays behind a blocked acquire — and a refusal takes nothing.
func TestWindowTryAcquireNeverOvertakes(t *testing.T) {
	w := newWindow(4)
	if !w.tryAcquire(3) {
		t.Fatal("3 of 4 refused on an empty window")
	}
	if w.tryAcquire(2) {
		t.Fatal("2 admitted with 1 free")
	}
	if got := w.used.Load(); got != 3 {
		t.Fatalf("a refused tryAcquire moved used to %d, want 3", got)
	}
	chunk := acquireAsync(context.Background(), w, nil, 3)
	waitFor(t, "the chunk to queue", func() bool { return w.queued() == 1 })
	if w.tryAcquire(1) {
		t.Fatal("tryAcquire took the free token past a queued acquire")
	}
	w.release(1) // two free: still short of the chunk's three
	if w.tryAcquire(1) {
		t.Fatal("tryAcquire took a token the queued chunk is waiting for")
	}
	if got := w.used.Load(); got != 2 {
		t.Fatalf("used = %d, want 2: refusals must leave the count alone", got)
	}
	mustNotBeGranted(t, "chunk", chunk)
	w.release(1)
	mustBeGranted(t, "chunk", chunk) // 1 held + the chunk's 3: full again
	w.release(1)
	if !w.tryAcquire(1) {
		t.Fatal("tryAcquire refused a free token with nobody queued")
	}
	if w.release(4) != 0 || w.need.Load() != 0 || w.max.Load() != 4 {
		t.Fatalf("at the end: used %d need %d max %d", w.used.Load(), w.need.Load(), w.max.Load())
	}
}

func TestWindowCancelAndStopWhileQueued(t *testing.T) {
	w := newWindow(4)
	bg := context.Background()
	if err := w.acquire(bg, nil, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	stopped := make(chan struct{})
	big := acquireAsync(ctx, w, nil, 3)
	waitFor(t, "the big demand to queue", func() bool { return w.queued() == 1 })
	stoppedOne := acquireAsync(bg, w, stopped, 4)
	waitFor(t, "the second demand to queue", func() bool { return w.queued() == 2 })
	small := acquireAsync(bg, w, nil, 2)
	waitFor(t, "the small demand to queue", func() bool { return w.queued() == 3 })

	cancel()
	if err := <-big; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	mustNotBeGranted(t, "small", small) // still behind the 4-token demand
	close(stopped)
	if err := <-stoppedOne; !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped acquire = %v, want ErrStopped", err)
	}
	// Both departures returned every token, and the second one unblocked
	// the small demand that had been stuck behind it.
	mustBeGranted(t, "small", small)
	if got := w.used.Load(); got != 4 {
		t.Fatalf("used = %d, want 4 (2 held + 2 granted, nothing leaked)", got)
	}
	if w.release(4) != 0 || w.need.Load() != 0 || w.queued() != 0 {
		t.Fatalf("window not empty at the end: used %d need %d queued %d", w.used.Load(), w.need.Load(), w.queued())
	}
}

// TestWindowNoLostWakeup races registering waiters against releasers on
// tiny windows: a release that slips between a failed reservation and the
// waiter's registration must still be seen. A lost wake-up hangs the test.
func TestWindowNoLostWakeup(t *testing.T) {
	for _, limit := range []int64{1, 2, 8} {
		w := newWindow(limit)
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					n := int64((g+i)%int(limit)) + 1
					if err := w.acquire(context.Background(), nil, n); err != nil {
						t.Error(err)
						return
					}
					// Tokens go back one at a time, as finishers return them.
					for ; n > 0; n-- {
						w.release(1)
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("limit %d: waiters wedged: used %d need %d queued %d", limit, w.used.Load(), w.need.Load(), w.queued())
		}
		if w.used.Load() != 0 || w.need.Load() != 0 || w.queued() != 0 {
			t.Fatalf("limit %d: used %d need %d queued %d at the end", limit, w.used.Load(), w.need.Load(), w.queued())
		}
		if got := w.max.Load(); got > limit {
			t.Fatalf("limit %d: max %d exceeded the limit", limit, got)
		}
	}
}

// TestInFlightNeverExceedsWindow is the regression for the token that was
// returned before the in-flight counter was decremented: many tiny windows,
// concurrent Submit and SubmitAll, and the high-water mark checked every
// round. With one counter doing both jobs the bound holds by construction.
func TestInFlightNeverExceedsWindow(t *testing.T) {
	for round := 0; round < 60; round++ {
		window := 1 + round%8
		rt := New(Config{Workers: 2, Window: window})
		var over atomic.Int64
		body := func(context.Context) error {
			if n := rt.InFlight(); n > window {
				over.Store(int64(n))
			}
			return nil
		}
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				ctx := context.Background()
				for i := 0; i < 25; i++ {
					if (s+i)%3 == 0 {
						batch := make([]Task, 2*window+1) // forces chunking
						for j := range batch {
							batch[j] = Task{Deps: []Dep{Out(uint64(s)<<32 | uint64(i)<<16 | uint64(j))}, Do: body}
						}
						if _, err := rt.SubmitAll(ctx, batch); err != nil {
							t.Error(err)
						}
						continue
					}
					if _, err := rt.Submit(ctx, Task{Deps: []Dep{Out(uint64(s)<<32 | uint64(i)<<16)}, Do: body}); err != nil {
						t.Error(err)
					}
				}
			}(s)
		}
		wg.Wait()
		mustClose(t, rt)
		if got := rt.Stats().MaxInFlight; got > window {
			t.Fatalf("round %d: in-flight %d exceeded window %d", round, got, window)
		}
		if n := over.Load(); n != 0 {
			t.Fatalf("round %d: a body observed %d in flight with window %d", round, n, window)
		}
		if n := rt.InFlight(); n != 0 {
			t.Fatalf("round %d: %d tokens leaked", round, n)
		}
	}
}

// TestCloseWakesParkedSubmitters: Close shuts the window before it drains, so
// a submitter parked on a full window is refused, not admitted late; the
// refusal is ErrStopped on every path, the non-blocking one included, even
// though the window is also full; and the counters stay truthful afterwards.
func TestCloseWakesParkedSubmitters(t *testing.T) {
	const window = 2
	for name, rt := range newRuntimes(Config{Workers: 2, Window: window}) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			gate := make(chan struct{})
			held := func(context.Context) error { <-gate; return nil }
			for i := 0; i < window; i++ {
				rt.MustSubmit(Task{Deps: []Dep{Out(uint64(i))}, Do: held})
			}
			scope := rt.Scope("tenant")
			parked := []func() error{
				func() error { _, err := rt.Submit(ctx, Task{Do: held}); return err },
				func() error { _, err := rt.SubmitAll(ctx, []Task{{Do: held}, {Do: held}}); return err },
				func() error { _, err := scope.Submit(ctx, Task{Do: held}); return err },
				func() error { _, err := scope.SubmitAll(ctx, []Task{{Do: held}}); return err },
				func() error { return rt.WaitOn(ctx, 0) },
			}
			errs := make(chan error, len(parked))
			for _, submit := range parked {
				go func() { errs <- submit() }()
			}
			waitFor(t, "every submitter to park", func() bool { return rt.win.queued() == len(parked) })
			closed := make(chan error, 1)
			go func() { closed <- rt.Close() }()
			for range parked {
				if err := <-errs; !errors.Is(err, ErrStopped) {
					t.Errorf("a submitter parked on the full window got %v, want ErrStopped", err)
				}
			}
			// Close is still draining the two held tasks: full and shut.
			if _, err := scope.TrySubmitAll(ctx, []Task{{Do: held}}); !errors.Is(err, ErrStopped) {
				t.Errorf("TrySubmitAll on a closing runtime = %v, want ErrStopped", err)
			}
			if got := rt.InFlight(); got != window {
				t.Errorf("InFlight = %d while Close drains, want %d", got, window)
			}
			close(gate)
			if err := <-closed; err != nil {
				t.Fatalf("Close = %v", err)
			}
			st := rt.Stats()
			if rt.InFlight() != 0 || scope.InFlight() != 0 || st.MaxInFlight != window || st.Submitted != window || st.Executed != window {
				t.Fatalf("after Close: in flight %d (scope %d), %v", rt.InFlight(), scope.InFlight(), st)
			}
		})
	}
}
