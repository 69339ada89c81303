package starss

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestShardedRuntimeStress hammers the lock-striped runtime from many
// submitters sharing one small key pool, under -race: mixed Submit and
// SubmitAll batches, bodies that fail, submitters whose context is
// cancelled mid-flight, all on a window far smaller than the task count.
// After Close, the counters must account for every admitted task
// (Submitted == Executed + Failed + Skipped — the drained-window
// invariant) and every returned handle must be complete.
func TestShardedRuntimeStress(t *testing.T) {
	const (
		submitters        = 8
		tasksPerSubmitter = 300
		keyPool           = 24
	)
	rt := newRuntime(Config{Workers: 8, Window: 64}, 4, nil)

	var (
		mu      sync.Mutex
		handles []*Handle
		bodyRan atomic.Uint64
	)
	errInjected := errors.New("stress: injected failure")

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Two submitters cancel their context mid-flight; their later
			// submissions must be rejected cleanly, never half-admitted.
			cancelAt := -1
			if s%4 == 3 {
				cancelAt = tasksPerSubmitter / 2
			}
			rng := uint64(s)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			mk := func(i int) Task {
				fail := next(37) == 0
				return Task{
					Name: fmt.Sprintf("s%d-t%d", s, i),
					Deps: []Dep{
						In(uint64(next(keyPool))),
						In(uint64(next(keyPool))),
						Out(uint64(next(keyPool))),
					},
					Do: func(context.Context) error {
						bodyRan.Add(1)
						if fail {
							return errInjected
						}
						return nil
					},
				}
			}
			for i := 0; i < tasksPerSubmitter; {
				if i == cancelAt {
					cancel()
				}
				if next(3) == 0 {
					// Batch path: a SubmitAll of up to 16 tasks.
					n := 1 + next(16)
					if i+n > tasksPerSubmitter {
						n = tasksPerSubmitter - i
					}
					batch := make([]Task, n)
					for j := range batch {
						batch[j] = mk(i + j)
					}
					hs, err := rt.SubmitAll(ctx, batch)
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("submitter %d: SubmitAll: %v", s, err)
					}
					mu.Lock()
					handles = append(handles, hs...)
					mu.Unlock()
					i += n
					continue
				}
				h, err := rt.Submit(ctx, mk(i))
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("submitter %d: Submit: %v", s, err)
					}
				} else {
					mu.Lock()
					handles = append(handles, h)
					mu.Unlock()
				}
				i++
			}
		}()
	}
	wg.Wait()

	err := rt.Close()
	if err != nil && !errors.Is(err, errInjected) {
		t.Errorf("Close returned an unexpected root cause: %v", err)
	}

	st := rt.Stats()
	if st.Submitted != st.Executed+st.Failed+st.Skipped {
		t.Errorf("counter leak: %s (submitted != executed+failed+skipped)", st)
	}
	if uint64(len(handles)) != st.Submitted {
		t.Errorf("returned %d handles for %d admitted tasks", len(handles), st.Submitted)
	}
	// Every body that ran either succeeded (Executed) or returned the
	// injected error (a subset of Failed, which also counts tasks cancelled
	// before their body started); skipped tasks never ran at all.
	if ran := bodyRan.Load(); ran < st.Executed || ran > st.Executed+st.Failed {
		t.Errorf("body ran %d times, stats say executed=%d failed=%d",
			ran, st.Executed, st.Failed)
	}
	for _, h := range handles {
		select {
		case <-h.Done():
		default:
			t.Fatalf("handle %q still pending after Close", h.Name())
		}
		if err := h.Err(); err != nil &&
			!errors.Is(err, errInjected) && !errors.Is(err, ErrDependencyFailed) &&
			!errors.Is(err, context.Canceled) {
			t.Errorf("handle %q: unexpected error class: %v", h.Name(), err)
		}
	}
}

// TestStressSubmitAfterClose pins the shutdown edge under contention: a
// burst of submitters racing Close must each either have their task fully
// admitted (and drained) or get ErrStopped — no third outcome, no hang.
func TestStressSubmitAfterClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := newRuntime(Config{Workers: 4, Window: 16}, 2, nil)
		var wg sync.WaitGroup
		var admitted atomic.Uint64
		start := make(chan struct{})
		for s := 0; s < 6; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					h, err := rt.Submit(context.Background(), Task{
						Deps: []Dep{InOut(uint64(s % 3))},
						Do:   func(context.Context) error { return nil },
					})
					if err != nil {
						if !errors.Is(err, ErrStopped) {
							t.Errorf("round %d: %v", round, err)
						}
						return
					}
					admitted.Add(1)
					_ = h
				}
			}()
		}
		closed := make(chan error, 1)
		go func() {
			<-start
			closed <- rt.Close()
		}()
		close(start)
		wg.Wait()
		if err := <-closed; err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		st := rt.Stats()
		if st.Submitted != admitted.Load() || st.Submitted != st.Executed {
			t.Errorf("round %d: admitted %d, stats %s", round, admitted.Load(), st)
		}
	}
}
