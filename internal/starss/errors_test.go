package starss

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the typed-handle API: error propagation, transitive poisoning,
// panic recovery, context cancellation and the context-aware lifecycle.

var errBoom = errors.New("boom")

// newRuntimes builds both the sharded runtime and the single-maestro
// baseline, so every test ranging over it pins the two resolvers to the
// same expectations.
func newRuntimes(cfg Config) map[string]*Runtime {
	return map[string]*Runtime{
		"sharded": New(cfg),
		"maestro": NewMaestro(cfg),
	}
}

func TestMidChainFailurePoisonsDependents(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 4, Window: 16}) {
		t.Run(name, func(t *testing.T) {
			var ran [4]atomic.Bool
			handles := make([]*Handle, 4)
			gate := make(chan struct{}) // holds the chain until every link is queued
			for i := 0; i < 4; i++ {
				i := i
				handles[i] = rt.MustSubmit(Task{
					Name: "link" + itoa(i),
					Deps: []Dep{InOut(addrChain)},
					Do: func(context.Context) error {
						ran[i].Store(true)
						if i == 1 {
							<-gate
							return errBoom
						}
						return nil
					},
				})
			}
			close(gate)
			if err := rt.Wait(context.Background()); !errors.Is(err, errBoom) {
				t.Fatalf("Wait = %v, want the root cause errBoom", err)
			}
			if !ran[0].Load() || !ran[1].Load() {
				t.Fatal("tasks before the failure did not run")
			}
			if ran[2].Load() || ran[3].Load() {
				t.Fatal("transitive dependents of the failed task ran")
			}
			if err := handles[0].Err(); err != nil {
				t.Errorf("link0.Err = %v, want nil", err)
			}
			if err := handles[1].Err(); !errors.Is(err, errBoom) || errors.Is(err, ErrDependencyFailed) {
				t.Errorf("link1.Err = %v, want bare errBoom", err)
			}
			for _, h := range handles[2:] {
				err := h.Err()
				if !errors.Is(err, ErrDependencyFailed) {
					t.Errorf("%s.Err = %v, want ErrDependencyFailed", h.Name(), err)
				}
				if !errors.Is(err, errBoom) {
					t.Errorf("%s.Err = %v, must wrap the root cause", h.Name(), err)
				}
			}
			st := rt.Stats()
			if st.Executed != 1 || st.Failed != 1 || st.Skipped != 2 {
				t.Errorf("stats = %v, want executed=1 failed=1 skipped=2", st)
			}
			// The failure must not wedge the runtime: the key drains, and a
			// fresh task on it runs cleanly.
			h := rt.MustSubmit(Task{Deps: []Dep{InOut(addrChain)}, Do: func(context.Context) error { return nil }})
			<-h.Done()
			if err := h.Err(); err != nil {
				t.Errorf("fresh task on a drained key = %v, want nil", err)
			}
			if err := rt.Close(); !errors.Is(err, errBoom) {
				t.Errorf("Close = %v, want the root cause", err)
			}
		})
	}
}

// TestFailureDrainsRuntime pins the acceptance criterion directly: after a
// mid-chain failure the runtime is fully drained — in-flight 0 and an empty
// window — so nothing leaks tokens or wedges.
func TestFailureDrainsRuntime(t *testing.T) {
	rt := New(Config{Workers: 2, Window: 8})
	gate := make(chan struct{}) // holds the segment until the chain is queued
	rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-gate; return errBoom }})
	for i := 0; i < 6; i++ {
		rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: do(func() {})})
	}
	close(gate)
	if err := rt.Wait(context.Background()); !errors.Is(err, errBoom) {
		t.Fatalf("Wait = %v", err)
	}
	if n := rt.InFlight(); n != 0 {
		t.Errorf("window holds %d tokens after drain, want 0", n)
	}
	if st := rt.Stats(); st.Skipped != 6 {
		t.Errorf("stats = %v, want skipped=6", st)
	}
	rt.Close()
}

// TestWriterFailsQueuedReadersSkipped covers the RAW side of a hazard
// chain: readers queued behind a failing writer never run.
func TestWriterFailsQueuedReadersSkipped(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 4, Window: 16}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			rt.MustSubmit(Task{
				Name: "writer",
				Deps: []Dep{Out(addrK)},
				Do: func(context.Context) error {
					<-gate // hold the segment until the readers are queued
					return errBoom
				},
			})
			var ran atomic.Int32
			readers := make([]*Handle, 3)
			for i := range readers {
				readers[i] = rt.MustSubmit(Task{
					Deps: []Dep{In(addrK)},
					Do:   func(context.Context) error { ran.Add(1); return nil },
				})
			}
			close(gate)
			if err := rt.Wait(context.Background()); !errors.Is(err, errBoom) {
				t.Fatalf("Wait = %v", err)
			}
			if ran.Load() != 0 {
				t.Fatalf("%d queued readers ran behind the failed writer", ran.Load())
			}
			for _, h := range readers {
				if err := h.Err(); !errors.Is(err, ErrDependencyFailed) || !errors.Is(err, errBoom) {
					t.Errorf("reader err = %v", err)
				}
			}
			if st := rt.Stats(); st.Skipped != 3 || st.Failed != 1 {
				t.Errorf("stats = %v", st)
			}
			rt.Close()
		})
	}
}

// TestReaderFailsWaitingWriterSkipped covers the WAR side: a writer waiting
// on readers is skipped when any of them fails — even when the failing
// reader is not the last one to finish, which exercises the segment-level
// poison (the failure is recorded on the segment and applied when the final
// clean reader pops the writer).
func TestReaderFailsWaitingWriterSkipped(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 4, Window: 16}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			slow := make(chan struct{})
			failing := rt.MustSubmit(Task{
				Name: "failing-reader",
				Deps: []Dep{In(addrK)},
				Do: func(context.Context) error {
					<-gate // hold the segment until everyone is admitted
					return errBoom
				},
			})
			rt.MustSubmit(Task{
				Name: "slow-clean-reader",
				Deps: []Dep{In(addrK)},
				Do: func(context.Context) error {
					<-slow // outlive the failing reader
					return nil
				},
			})
			var wrote atomic.Bool
			writer := rt.MustSubmit(Task{
				Name: "writer",
				Deps: []Dep{Out(addrK)},
				Do:   func(context.Context) error { wrote.Store(true); return nil },
			})
			close(gate)
			<-failing.Done() // the failure lands on the segment first...
			close(slow)      // ...then the clean reader drains and pops the writer
			if err := rt.Wait(context.Background()); !errors.Is(err, errBoom) {
				t.Fatalf("Wait = %v", err)
			}
			if wrote.Load() {
				t.Fatal("waiting writer ran although a reader it waited on failed")
			}
			if err := writer.Err(); !errors.Is(err, ErrDependencyFailed) || !errors.Is(err, errBoom) {
				t.Errorf("writer err = %v", err)
			}
			if st := rt.Stats(); st.Executed != 1 || st.Failed != 1 || st.Skipped != 1 {
				t.Errorf("stats = %v", st)
			}
			rt.Close()
		})
	}
}

func TestPanicBecomesError(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{}) // holds the segment until the dependent is queued
			h := rt.MustSubmit(Task{
				Name: "kaboom",
				Deps: []Dep{Out(addrK)},
				Do:   do(func() { <-gate; panic("kaboom payload") }),
			})
			var ran atomic.Bool
			dep := rt.MustSubmit(Task{
				Deps: []Dep{In(addrK)},
				Do:   func(context.Context) error { ran.Store(true); return nil },
			})
			close(gate)
			err := rt.Wait(context.Background())
			if !errors.Is(err, ErrTaskPanicked) {
				t.Fatalf("Wait = %v, want ErrTaskPanicked", err)
			}
			if !strings.Contains(err.Error(), "kaboom payload") {
				t.Errorf("panic value lost: %v", err)
			}
			if !errors.Is(h.Err(), ErrTaskPanicked) {
				t.Errorf("handle err = %v", h.Err())
			}
			if ran.Load() {
				t.Error("dependent of the panicking task ran")
			}
			if !errors.Is(dep.Err(), ErrDependencyFailed) {
				t.Errorf("dependent err = %v", dep.Err())
			}
			rt.Close()
		})
	}
}

func TestSubmitCancelledOnFullWindow(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 1, Window: 1}) {
		t.Run(name, func(t *testing.T) {
			block := make(chan struct{})
			rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-block; return nil }})
			ctx, cancel := context.WithCancel(context.Background())
			res := make(chan error, 1)
			go func() {
				_, err := rt.Submit(ctx, Task{Do: do(func() {})})
				res <- err
			}()
			select {
			case err := <-res:
				t.Fatalf("Submit returned %v while the window was full", err)
			case <-time.After(50 * time.Millisecond):
			}
			cancel()
			select {
			case err := <-res:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled Submit = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled Submit did not unblock")
			}
			close(block)
			if err := rt.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
		})
	}
}

func TestSubmitAllCancelledOnFullWindow(t *testing.T) {
	rt := New(Config{Workers: 1, Window: 2})
	block := make(chan struct{})
	rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-block; return nil }})
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		tasks := make([]Task, 8)
		for i := range tasks {
			tasks[i] = Task{Do: do(func() {})}
		}
		_, err := rt.SubmitAll(ctx, tasks)
		res <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-res:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled SubmitAll = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled SubmitAll did not unblock")
	}
	close(block)
	// The aborted chunk must have returned its partial window tokens.
	if err := rt.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if n := rt.InFlight(); n != 0 {
		t.Fatalf("window holds %d tokens after Close", n)
	}
}

func TestSubmitRejectsDeadContext(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer mustClose(t, rt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Submit(ctx, Task{Do: do(func() {})}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with dead ctx = %v", err)
	}
	if _, err := rt.SubmitAll(ctx, []Task{{Do: do(func() {})}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SubmitAll with dead ctx = %v", err)
	}
	if st := rt.Stats(); st.Submitted != 0 {
		t.Fatalf("dead-context submission was admitted: %v", st)
	}
}

// TestCancelAfterAdmission: a task whose context dies while it is queued
// behind a hazard fails with the cancellation cause and poisons its own
// dependents, instead of running with a dead context.
func TestCancelAfterAdmission(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 8}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-gate; return nil }})
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Bool
			h, err := rt.Submit(ctx, Task{
				Deps: []Dep{InOut(addrK)},
				Do:   func(context.Context) error { ran.Store(true); return nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			var depRan atomic.Bool
			dep := rt.MustSubmit(Task{
				Deps: []Dep{In(addrK)},
				Do:   func(context.Context) error { depRan.Store(true); return nil },
			})
			cancel()
			close(gate)
			if err := rt.Wait(context.Background()); !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait = %v, want the cancellation as root cause", err)
			}
			if ran.Load() {
				t.Fatal("cancelled task body ran")
			}
			if err := h.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled handle err = %v", err)
			}
			if depRan.Load() {
				t.Fatal("dependent of the cancelled task ran")
			}
			if err := dep.Err(); !errors.Is(err, ErrDependencyFailed) || !errors.Is(err, context.Canceled) {
				t.Errorf("dependent err = %v", err)
			}
			rt.Close()
		})
	}
}

func TestWaitCancellation(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 1, Window: 4}) {
		t.Run(name, func(t *testing.T) {
			block := make(chan struct{})
			rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-block; return nil }})
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := rt.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Wait under deadline = %v", err)
			}
			close(block)
			if err := rt.Wait(context.Background()); err != nil {
				t.Fatalf("Wait = %v", err)
			}
			rt.Close()
		})
	}
}

// TestWaitOnCancellation: a WaitOn abandoned on its deadline leaves its task
// behind. The task does not carry the caller's context, so it completes in
// order as Executed — never Failed — and the key it sat on is not poisoned.
func TestWaitOnCancellation(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 1, Window: 4}) {
		t.Run(name, func(t *testing.T) {
			block := make(chan struct{})
			rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-block; return nil }})
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			if err := rt.WaitOn(ctx, addrK); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("WaitOn under deadline = %v", err)
			}
			if got := rt.InFlight(); got != 2 {
				t.Fatalf("InFlight = %d after the abandoned WaitOn, want its task and the blocker", got)
			}
			// A reader submitted behind the abandoned wait, under a live context.
			var read atomic.Bool
			reader := rt.MustSubmit(Task{Deps: []Dep{In(addrK)}, Do: do(func() { read.Store(true) })})
			close(block)
			if err := rt.WaitOn(context.Background(), addrK); err != nil {
				t.Fatalf("WaitOn = %v", err)
			}
			if err := reader.Err(); err != nil || !read.Load() {
				t.Fatalf("reader behind the abandoned WaitOn: err = %v, ran = %v", err, read.Load())
			}
			if err := rt.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
			// The blocker, the reader and both WaitOn tasks, the abandoned one included.
			if st := rt.Stats(); st.Submitted != 4 || st.Executed != 4 || st.Failed != 0 || st.Skipped != 0 {
				t.Fatalf("stats = %v", st)
			}
		})
	}
}

func TestHandleIdentity(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			named := rt.MustSubmit(Task{Name: "alpha", Deps: []Dep{Out(addrA)}, Do: do(func() {})})
			anon := rt.MustSubmit(Task{Deps: []Dep{Out(addrB)}, Do: do(func() {})})
			if named.Name() != "alpha" {
				t.Errorf("Name = %q", named.Name())
			}
			if named.Index() != 0 || anon.Index() != 1 {
				t.Errorf("indices = %d, %d, want 0, 1", named.Index(), anon.Index())
			}
			if anon.Name() != "task1" {
				t.Errorf("anonymous Name = %q, want task1", anon.Name())
			}
			if err := named.Wait(context.Background()); err != nil {
				t.Errorf("handle Wait = %v", err)
			}
			rt.Close()
		})
	}
}

func TestHandleErrNilWhilePending(t *testing.T) {
	rt := New(Config{Workers: 1})
	block := make(chan struct{})
	h := rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-block; return errBoom }})
	if err := h.Err(); err != nil {
		t.Fatalf("pending handle Err = %v, want nil", err)
	}
	select {
	case <-h.Done():
		t.Fatal("pending handle reported done")
	default:
	}
	close(block)
	<-h.Done()
	if !errors.Is(h.Err(), errBoom) {
		t.Fatalf("done handle Err = %v", h.Err())
	}
	_ = rt.Close() // the failure was already observed via h.Err above
}

func TestHandleWaitCancellation(t *testing.T) {
	rt := New(Config{Workers: 1})
	block := make(chan struct{})
	h := rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { <-block; return nil }})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := h.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("handle Wait under deadline = %v", err)
	}
	close(block)
	if err := h.Wait(context.Background()); err != nil {
		t.Fatalf("handle Wait = %v", err)
	}
	rt.Close()
}

// TestSubmitAllHandles: the batch path returns one handle per task, in
// order, and a failure inside the batch poisons the rest of its chain.
func TestSubmitAllHandles(t *testing.T) {
	rt := New(Config{Workers: 4})
	tasks := make([]Task, 5)
	// The head holds the chain until the whole batch is checked: SubmitAll
	// checks task by task, and a key that drains between the failure and the
	// next check takes its poison with it.
	gate := make(chan struct{})
	for i := range tasks {
		i := i
		tasks[i] = Task{
			Deps: []Dep{InOut(addrChain)},
			Do: func(context.Context) error {
				switch i {
				case 0:
					<-gate
				case 2:
					return errBoom
				}
				return nil
			},
		}
	}
	handles, err := rt.SubmitAll(context.Background(), tasks)
	close(gate)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 5 {
		t.Fatalf("got %d handles", len(handles))
	}
	for i, h := range handles {
		if h.Index() != uint64(i) {
			t.Errorf("handle %d has index %d", i, h.Index())
		}
	}
	if err := rt.Wait(context.Background()); !errors.Is(err, errBoom) {
		t.Fatalf("Wait = %v", err)
	}
	for i, h := range handles {
		err := h.Err()
		switch {
		case i < 2 && err != nil:
			t.Errorf("handle %d err = %v, want nil", i, err)
		case i == 2 && !errors.Is(err, errBoom):
			t.Errorf("handle 2 err = %v, want errBoom", err)
		case i > 2 && (!errors.Is(err, ErrDependencyFailed) || !errors.Is(err, errBoom)):
			t.Errorf("handle %d err = %v, want skip wrapping root", i, err)
		}
	}
	if st := rt.Stats(); st.Executed != 2 || st.Failed != 1 || st.Skipped != 2 {
		t.Errorf("stats = %v", st)
	}
	rt.Close()
}

// TestStatsString pins the report-path rendering of the new counters.
func TestStatsString(t *testing.T) {
	s := Stats{TaskCounts: TaskCounts{Submitted: 5, Executed: 2, Failed: 1, Skipped: 2}, Hazards: 3, MaxInFlight: 4}
	got := s.String()
	for _, want := range []string{"submitted=5", "executed=2", "failed=1", "skipped=2", "hazards=3", "max-in-flight=4"} {
		if !strings.Contains(got, want) {
			t.Errorf("Stats.String() = %q, missing %q", got, want)
		}
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

// TestReaderJoiningPoisonedSegmentSkipped: a reader that joins a
// still-live poisoned segment without queueing (sharing the reader group
// with already-skipped readers) is tainted too — not just the waiters
// popped from the kick-off list.
func TestReaderJoiningPoisonedSegmentSkipped(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 1, Window: 16}) {
		t.Run(name, func(t *testing.T) {
			writerGate := make(chan struct{})
			writer := rt.MustSubmit(Task{
				Name: "writer",
				Deps: []Dep{Out(addrK)},
				Do:   func(context.Context) error { <-writerGate; return errBoom },
			})
			// r1 also reads k2, which a gated writer holds: when the failed
			// writer releases k, r1 joins k's reader group but cannot finish —
			// whatever order the workers take ready tasks in — so the segment
			// stays live, poisoned, with r1 in it until the test opens the gate.
			gate := make(chan struct{})
			rt.MustSubmit(Task{
				Deps: []Dep{Out(addrK2)},
				Do:   func(context.Context) error { <-gate; return nil },
			})
			r1 := rt.MustSubmit(Task{Deps: []Dep{In(addrK), In(addrK2)}, Do: do(func() {})})
			close(writerGate)
			<-writer.Done()
			var lateRan atomic.Bool
			late := rt.MustSubmit(Task{
				Name: "late-reader",
				Deps: []Dep{In(addrK)},
				Do:   func(context.Context) error { lateRan.Store(true); return nil },
			})
			close(gate)
			if err := rt.Wait(context.Background()); !errors.Is(err, errBoom) {
				t.Fatalf("Wait = %v", err)
			}
			if lateRan.Load() {
				t.Fatal("reader joining a poisoned segment ran against unwritten data")
			}
			if err := late.Err(); !errors.Is(err, ErrDependencyFailed) || !errors.Is(err, errBoom) {
				t.Errorf("late reader err = %v", err)
			}
			if !errors.Is(r1.Err(), ErrDependencyFailed) {
				t.Errorf("queued reader err = %v", r1.Err())
			}
			rt.Close()
		})
	}
}

// TestMaestroCloseSubmitRace stresses Close racing concurrent Submits: a
// straggler admitted between Close's drain and the stop must still find the
// maestro goroutine alive — it outlives both drains and the worker join —
// never leaving a submitter wedged on submitCh or a worker on doneCh.
func TestMaestroCloseSubmitRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		m := NewMaestro(Config{Workers: 2, Window: 8})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 500; j++ {
				if _, err := m.Submit(context.Background(), Task{
					Deps: []Dep{InOut(uint64(j % 4))},
					Do:   do(func() {}),
				}); err != nil {
					if !errors.Is(err, ErrStopped) {
						t.Errorf("Submit = %v", err)
					}
					return
				}
			}
		}()
		if err := m.Close(); err != nil {
			t.Fatalf("Close = %v", err)
		}
		<-done
	}
}

// TestSubmitAfterCloseUniformErrStopped pins the post-Close admission
// contract on both runtimes: every Submit/SubmitAll after Close returns
// ErrStopped — including the zero-length batch, which once skipped the
// stopped check entirely and reported success.
func TestSubmitAfterCloseUniformErrStopped(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 8}) {
		t.Run(name, func(t *testing.T) {
			h := rt.MustSubmit(Task{
				Deps: []Dep{InOut(addrK)},
				Do:   func(context.Context) error { return nil },
			})
			if err := rt.Close(); err != nil {
				t.Fatalf("Close = %v", err)
			}
			if err := h.Err(); err != nil {
				t.Fatalf("pre-Close task err = %v", err)
			}
			if _, err := rt.Submit(context.Background(), Task{
				Deps: []Dep{InOut(addrK)},
				Do:   func(context.Context) error { return nil },
			}); !errors.Is(err, ErrStopped) {
				t.Errorf("Submit after Close = %v, want ErrStopped", err)
			}
			if err := rt.Wait(context.Background()); !errors.Is(err, ErrStopped) {
				t.Errorf("Wait after Close = %v, want ErrStopped", err)
			}
			for _, batch := range [][]Task{
				nil, // the empty batch must not short-circuit to success
				{{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { return nil }}},
			} {
				handles, err := rt.SubmitAll(context.Background(), batch)
				if !errors.Is(err, ErrStopped) {
					t.Errorf("SubmitAll(len=%d) after Close = %v, want ErrStopped", len(batch), err)
				}
				if len(handles) != 0 {
					t.Errorf("SubmitAll(len=%d) after Close admitted %d tasks", len(batch), len(handles))
				}
			}
		})
	}
}
