package starss

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"nexuspp/internal/faults"
)

// failNTimes builds a body that fails its first n attempts and then
// succeeds, counting every call.
func failNTimes(n int, calls *atomic.Int64) func(context.Context) error {
	return func(context.Context) error {
		if calls.Add(1) <= int64(n) {
			return errors.New("transient")
		}
		return nil
	}
}

func TestRetryRecovers(t *testing.T) {
	rt := New(Config{Workers: 2})
	var calls atomic.Int64
	h := rt.MustSubmit(Task{
		Deps:         []Dep{InOut(addrK)},
		Do:           failNTimes(2, &calls),
		MaxRetries:   3,
		RetryBackoff: time.Microsecond,
	})
	mustClose(t, rt)
	if err := h.Err(); err != nil {
		t.Fatalf("recovered task err = %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("body ran %d times, want 3 (two failures, one success)", calls.Load())
	}
	st := rt.Stats()
	if st.Executed != 1 || st.Failed != 0 || st.Retried != 2 {
		t.Errorf("stats = %+v, want executed=1 failed=0 retried=2", st)
	}
}

func TestRetryExhausts(t *testing.T) {
	rt := New(Config{Workers: 2})
	boom := errors.New("boom")
	var calls atomic.Int64
	h := rt.MustSubmit(Task{
		Deps:         []Dep{InOut(addrK)},
		Do:           func(context.Context) error { calls.Add(1); return boom },
		MaxRetries:   2,
		RetryBackoff: time.Microsecond,
	})
	if err := rt.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v, want the exhausted task's error", err)
	}
	if !errors.Is(h.Err(), boom) {
		t.Errorf("handle err = %v, want boom", h.Err())
	}
	if calls.Load() != 3 {
		t.Errorf("body ran %d times, want 3 (MaxRetries=2)", calls.Load())
	}
	st := rt.Stats()
	if st.Failed != 1 || st.Retried != 2 {
		t.Errorf("stats = %+v, want failed=1 retried=2", st)
	}
}

// TestRetryRearmsBeforePoison is the ordering guarantee the retry policy
// exists for: a task that recovers on a later attempt must never have
// poisoned its dependents in between. The dependent shares the failing
// task's key, so if re-arm happened after the finished path it would be
// skipped.
func TestRetryRearmsBeforePoison(t *testing.T) {
	rt := New(Config{Workers: 2})
	var calls atomic.Int64
	var depRan atomic.Bool
	rt.MustSubmit(Task{
		Deps:         []Dep{Out(addrChain)},
		Do:           failNTimes(2, &calls),
		MaxRetries:   2,
		RetryBackoff: time.Microsecond,
	})
	dep := rt.MustSubmit(Task{
		Deps: []Dep{In(addrChain)},
		Do:   do(func() { depRan.Store(true) }),
	})
	mustClose(t, rt)
	if err := dep.Err(); err != nil {
		t.Fatalf("dependent err = %v, want nil (producer recovered)", err)
	}
	if !depRan.Load() {
		t.Error("dependent never ran")
	}
	if st := rt.Stats(); st.Skipped != 0 {
		t.Errorf("stats = %+v, want skipped=0", st)
	}
}

func TestTaskTimeout(t *testing.T) {
	rt := New(Config{Workers: 2})
	h := rt.MustSubmit(Task{
		Deps: []Dep{InOut(addrK)},
		Do: func(ctx context.Context) error {
			<-ctx.Done()
			return context.Cause(ctx)
		},
		Timeout: 20 * time.Millisecond,
	})
	if err := rt.Close(); !errors.Is(err, ErrTaskTimeout) {
		t.Errorf("Close = %v, want ErrTaskTimeout", err)
	}
	if !errors.Is(h.Err(), ErrTaskTimeout) {
		t.Errorf("handle err = %v, want ErrTaskTimeout", h.Err())
	}
}

// TestTimeoutRetries: each attempt gets a fresh deadline budget, so a task
// that hangs once and then behaves recovers under MaxRetries.
func TestTimeoutRetries(t *testing.T) {
	rt := New(Config{Workers: 2})
	var calls atomic.Int64
	h := rt.MustSubmit(Task{
		Deps: []Dep{InOut(addrK)},
		Do: func(ctx context.Context) error {
			if calls.Add(1) == 1 {
				<-ctx.Done()
				return context.Cause(ctx)
			}
			return nil
		},
		Timeout:      10 * time.Millisecond,
		MaxRetries:   1,
		RetryBackoff: time.Microsecond,
	})
	mustClose(t, rt)
	if err := h.Err(); err != nil {
		t.Fatalf("recovered task err = %v", err)
	}
	if st := rt.Stats(); st.Retried != 1 || st.Executed != 1 {
		t.Errorf("stats = %+v, want retried=1 executed=1", st)
	}
}

// TestCancelledContextIsFinal: a dead submission context must not be
// retried, no matter how many attempts remain.
func TestCancelledContextIsFinal(t *testing.T) {
	rt := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	h, err := rt.Submit(ctx, Task{
		Deps: []Dep{InOut(addrK)},
		Do: func(ctx context.Context) error {
			calls.Add(1)
			cancel()
			return errors.New("failed while the submitter was dying")
		},
		MaxRetries:   8,
		RetryBackoff: time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err == nil {
		t.Error("Close = nil, want the cancelled task's failure")
	}
	if h.Err() == nil {
		t.Error("handle err = nil, want failure")
	}
	if calls.Load() != 1 {
		t.Errorf("body ran %d times after its context died, want 1", calls.Load())
	}
}

// TestInjectedFaultsRetried: executor-level injection composes with the
// retry policy — an injected body error wraps faults.ErrInjected, and a
// task whose later attempt re-rolls clean recovers.
func TestInjectedFaultsRetried(t *testing.T) {
	in := faults.New(&faults.Plan{Seed: 5, Rules: []faults.Rule{{Site: faults.SiteTaskError, Prob: 0.5}}})
	rt := New(Config{Workers: 4, Faults: in})
	const n = 64
	const maxRetries = 6
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		handles[i] = rt.MustSubmit(Task{
			Deps:         []Dep{Out(uint64(i))},
			Do:           do(func() {}),
			MaxRetries:   maxRetries,
			RetryBackoff: time.Microsecond,
		})
	}
	// The schedule is a pure function of (seed, index, attempt): predict the
	// outcome of every handle before draining.
	closeErr := rt.Close()
	sawFailure := false
	for _, h := range handles {
		doomed := true
		for a := 0; a <= maxRetries; a++ {
			if !in.Peek(faults.SiteTaskError, faults.TaskKey(h.Index(), a)) {
				doomed = false
				break
			}
		}
		err := h.Err()
		if doomed {
			sawFailure = true
			if !errors.Is(err, faults.ErrInjected) {
				t.Errorf("task %d: err = %v, want ErrInjected", h.Index(), err)
			}
		} else if err != nil {
			t.Errorf("task %d: err = %v, want recovery", h.Index(), err)
		}
	}
	if sawFailure && closeErr == nil {
		t.Error("Close = nil despite exhausted tasks")
	}
	if !sawFailure && closeErr != nil {
		t.Errorf("Close = %v with no exhausted tasks", closeErr)
	}
	if in.Fired(faults.SiteTaskError) == 0 {
		t.Error("injector never fired at prob 0.5 over 64 tasks")
	}
}

// TestMaestroRetries: the single-master baseline shares the executor, so
// the retry policy and Retried accounting must behave identically there.
func TestMaestroRetries(t *testing.T) {
	m := NewMaestro(Config{Workers: 2})
	var calls atomic.Int64
	h := m.MustSubmit(Task{
		Deps:         []Dep{InOut(addrK)},
		Do:           failNTimes(2, &calls),
		MaxRetries:   3,
		RetryBackoff: time.Microsecond,
	})
	mustClose(t, m)
	if err := h.Err(); err != nil {
		t.Fatalf("recovered task err = %v", err)
	}
	if st := m.Stats(); st.Retried != 2 || st.Executed != 1 || st.Failed != 0 {
		t.Errorf("stats = %+v, want retried=2 executed=1 failed=0", st)
	}
}

// TestKickoffDelayInjection: a kickoff_delay rule stalls dispatch but never
// changes outcomes.
func TestKickoffDelayInjection(t *testing.T) {
	in := faults.New(&faults.Plan{Seed: 2, Rules: []faults.Rule{
		{Site: faults.SiteKickoffDelay, Every: 2, Delay: time.Millisecond},
	}})
	rt := New(Config{Workers: 4, Faults: in})
	var ran atomic.Int64
	for i := 0; i < 16; i++ {
		rt.MustSubmit(Task{Deps: []Dep{Out(uint64(i))}, Do: do(func() { ran.Add(1) })})
	}
	mustClose(t, rt)
	if ran.Load() != 16 {
		t.Errorf("ran %d of 16", ran.Load())
	}
	if in.Fired(faults.SiteKickoffDelay) == 0 {
		t.Error("kickoff_delay never fired with every=2 over 16 tasks")
	}
}
