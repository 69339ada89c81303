package starss

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// failNTimes builds a body that fails its first n calls and then succeeds,
// counting every call.
func failNTimes(n int, calls *atomic.Int64) func(context.Context) error {
	return func(context.Context) error {
		if calls.Add(1) <= int64(n) {
			return errors.New("transient")
		}
		return nil
	}
}

// hangUntilDone is a body that returns only when its context does.
func hangUntilDone(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

func TestRetryRecovers(t *testing.T) {
	var calls atomic.Int64
	var retried atomic.Uint64
	if err := Retry(failNTimes(2, &calls), 3, &retried)(context.Background()); err != nil {
		t.Fatalf("recovered body err = %v", err)
	}
	if calls.Load() != 3 || retried.Load() != 2 {
		t.Errorf("calls=%d retried=%d, want 3 and 2 (two failures, one success)", calls.Load(), retried.Load())
	}
}

func TestRetryExhausts(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	var retried atomic.Uint64
	err := Retry(func(context.Context) error { calls.Add(1); return boom }, 2, &retried)(context.Background())
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the last call's error", err)
	}
	if calls.Load() != 3 || retried.Load() != 2 {
		t.Errorf("calls=%d retried=%d, want 3 and 2 (n=2)", calls.Load(), retried.Load())
	}
}

// TestRetryNilCounter: a Retry without a counter re-arms all the same.
func TestRetryNilCounter(t *testing.T) {
	var calls atomic.Int64
	if err := Retry(failNTimes(1, &calls), 1, nil)(context.Background()); err != nil || calls.Load() != 2 {
		t.Errorf("err=%v calls=%d, want nil and 2", err, calls.Load())
	}
}

// TestCancelledContextIsFinal: a dead context is never retried, no matter
// how many re-arms remain — whether it died during a call or during the
// backoff after one.
func TestCancelledContextIsFinal(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	var retried atomic.Uint64
	err := Retry(func(context.Context) error {
		calls.Add(1)
		cancel()
		return errors.New("failed while the submitter was dying")
	}, 8, &retried)(ctx)
	if err == nil || calls.Load() != 1 || retried.Load() != 0 {
		t.Errorf("err=%v calls=%d retried=%d, want a failure after 1 call and no re-arm", err, calls.Load(), retried.Load())
	}

	// Dying in the backoff: the 250 ms cap far outlasts the 5 ms context.
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	calls.Store(0)
	start := time.Now()
	err = Retry(func(context.Context) error { calls.Add(1); return errors.New("fail") }, 16, nil)(ctx)
	if err == nil || ctx.Err() == nil {
		t.Fatalf("err=%v ctx=%v, want a failure after the context died", err, ctx.Err())
	}
	if n := calls.Load(); n >= 17 {
		t.Errorf("body ran %d times, want fewer than 17: a dead context ends the retries", n)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Retry returned after %v, want soon after its context died", d)
	}
}

func TestTaskTimeout(t *testing.T) {
	err := Deadline(hangUntilDone, 20*time.Millisecond)(context.Background())
	if !errors.Is(err, ErrTaskTimeout) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrTaskTimeout in place of DeadlineExceeded", err)
	}
}

// TestDeadlineLeavesCallerDeadline: a deadline the caller's context carried
// is not the body's budget running out, and is reported as it is.
func TestDeadlineLeavesCallerDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := Deadline(hangUntilDone, time.Hour)(ctx)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTaskTimeout) {
		t.Errorf("err = %v, want the caller's DeadlineExceeded", err)
	}
}

// TestTimeoutRetries: each call gets a fresh budget, so a body that hangs
// once and then behaves recovers under Retry.
func TestTimeoutRetries(t *testing.T) {
	var calls atomic.Int64
	var retried atomic.Uint64
	body := func(ctx context.Context) error {
		if calls.Add(1) == 1 {
			return hangUntilDone(ctx)
		}
		if _, ok := ctx.Deadline(); !ok {
			t.Error("second call has no deadline")
		}
		return nil
	}
	if err := Retry(Deadline(body, 10*time.Millisecond), 1, &retried)(context.Background()); err != nil {
		t.Fatalf("recovered body err = %v", err)
	}
	if retried.Load() != 1 {
		t.Errorf("retried = %d, want 1", retried.Load())
	}
}

// TestRetryPanicNotRetried: a panic leaves Retry at once and reaches the
// runtime's recover as ErrTaskPanicked, with re-arms to spare.
func TestRetryPanicNotRetried(t *testing.T) {
	rt := New(Config{Workers: 2})
	var calls atomic.Int64
	var retried atomic.Uint64
	h := rt.MustSubmit(Task{
		Deps: []Dep{InOut(addrK)},
		Do: Retry(func(context.Context) error {
			calls.Add(1)
			panic("boom")
		}, 4, &retried),
	})
	if err := rt.Close(); !errors.Is(err, ErrTaskPanicked) {
		t.Errorf("Close = %v, want ErrTaskPanicked", err)
	}
	if !errors.Is(h.Err(), ErrTaskPanicked) {
		t.Errorf("handle err = %v, want ErrTaskPanicked", h.Err())
	}
	if calls.Load() != 1 || retried.Load() != 0 {
		t.Errorf("calls=%d retried=%d, want 1 and 0", calls.Load(), retried.Load())
	}
}
