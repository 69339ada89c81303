package starss

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/workload"
)

// newReadyQueue returns a queue with room for window tasks.
func newReadyQueue(window int) *readyQueue {
	q := new(readyQueue)
	q.init(window)
	return q
}

// queueNodes returns n distinct nodes to queue.
func queueNodes(n int) []*taskNode {
	nodes := make([]*taskNode, n)
	for i := range nodes {
		nodes[i] = new(taskNode)
	}
	return nodes
}

// TestReadyQueueMatchesSliceModel drives the ring beside a slice with random
// batches and pops — on a window that is not a power of two, so the indices
// wrap by comparison — and then fills it to exactly Window entries across
// the wrap.
func TestReadyQueueMatchesSliceModel(t *testing.T) {
	const window = 13
	q := newReadyQueue(window)
	var model []*taskNode
	rng := rand.New(rand.NewPCG(22, 1))
	pop := func() {
		t.Helper()
		got, ok := q.pop()
		if !ok || got != model[0] {
			t.Fatalf("pop = %p, %v; the model's oldest is %p", got, ok, model[0])
		}
		model = model[1:]
	}
	for step := 0; step < 5000; step++ {
		if free := window - len(model); free > 0 && rng.IntN(2) == 0 {
			batch := queueNodes(1 + rng.IntN(free))
			q.push(batch)
			model = append(model, batch...)
		} else if len(model) > 0 {
			pop()
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, model holds %d", step, q.len(), len(model))
		}
	}
	for len(model) > 0 {
		pop()
	}
	// Move the head to the middle of the ring, then fill every slot with one
	// push that has to wrap.
	half := queueNodes(window / 2)
	q.push(half)
	model = append(model, half...)
	for len(model) > 0 {
		pop()
	}
	full := queueNodes(window)
	q.push(full)
	model = append(model, full...)
	if q.len() != window {
		t.Fatalf("len = %d after filling the window, want %d", q.len(), window)
	}
	for len(model) > 0 {
		pop()
	}
	for i, slot := range q.ring {
		if slot != nil {
			t.Errorf("slot %d still points at a popped task", i)
		}
	}
}

// TestReadyQueueClose: close wakes every parked worker, and a worker that
// finds tasks left behind drains them before it hears the queue is closed.
func TestReadyQueueClose(t *testing.T) {
	q := newReadyQueue(8)
	const workers = 4
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if node, ok := q.pop(); ok {
				t.Errorf("pop on a closed, empty queue = %p, true", node)
			}
		}()
	}
	for parked := 0; parked < workers; {
		runtime.Gosched()
		q.mu.Lock()
		parked = q.parked
		q.mu.Unlock()
	}
	q.close()
	wg.Wait()

	q = newReadyQueue(8)
	left := queueNodes(3)
	q.push(left)
	q.close()
	for i, want := range left {
		if got, ok := q.pop(); !ok || got != want {
			t.Fatalf("pop %d after close = %p, %v; want %p", i, got, ok, want)
		}
	}
	if node, ok := q.pop(); ok {
		t.Fatalf("pop on a drained, closed queue = %p, true", node)
	}
}

// TestReadyQueueFullWindowPushDoesNotBlock: with the only worker held inside
// a body, a whole window of ready tasks is submitted without any Submit
// waiting for a pop — the property Close and the finish path rely on.
func TestReadyQueueFullWindowPushDoesNotBlock(t *testing.T) {
	const window = 8
	rt := New(Config{Workers: 1, Window: window})
	defer mustClose(t, rt)
	running, gate := make(chan struct{}), make(chan struct{})
	rt.MustSubmit(Task{Do: func(context.Context) error { close(running); <-gate; return nil }})
	<-running
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := 1; i < window; i++ {
			rt.MustSubmit(Task{Deps: []Dep{Out(uint64(i))}, Do: do(func() {})})
		}
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("a push into the ready queue blocked")
	}
	if got := rt.QueueDepth(); got != window-1 {
		t.Errorf("queue depth = %d, want %d", got, window-1)
	}
	close(gate)
}

// TestReadyNoHiddenTask: one of sixteen ready tasks blocks until all the
// others have run. Any ready task parked where only the blocked worker can
// reach it — a worker's private batch — would hang the run.
func TestReadyNoHiddenTask(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			const n = 16
			var ran atomic.Int64
			allRan := make(chan struct{})
			tasks := make([]Task, n)
			tasks[0] = Task{Deps: []Dep{Out(0)}, Do: func(ctx context.Context) error {
				select {
				case <-allRan:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}}
			for i := 1; i < n; i++ {
				tasks[i] = Task{Deps: []Dep{Out(uint64(i))}, Do: do(func() {
					if ran.Add(1) == n-1 {
						close(allRan)
					}
				})}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := rt.SubmitAll(ctx, tasks); err != nil {
				t.Fatal(err)
			}
			if err := rt.Wait(ctx); err != nil {
				t.Fatalf("%d of %d tasks ran, the rest out of the free worker's reach: %v", ran.Load(), n-1, err)
			}
		})
	}
}

// TestSuccessorRunsNext: on one worker, the task a finisher releases runs
// before a ready task that was queued earlier: it never enters the queue.
func TestSuccessorRunsNext(t *testing.T) {
	rt := New(Config{Workers: 1})
	var mu sync.Mutex
	var order []string
	note := func(s string) func() {
		return func() { mu.Lock(); order = append(order, s); mu.Unlock() }
	}
	gate := make(chan struct{}) // holds the producer until everything is queued
	rt.MustSubmit(Task{Deps: []Dep{Out(addrK)}, Do: do(func() { <-gate; note("producer")() })})
	rt.MustSubmit(Task{Deps: []Dep{Out(addrOther)}, Do: do(note("queued"))})
	rt.MustSubmit(Task{Deps: []Dep{In(addrK)}, Do: do(note("successor"))})
	close(gate)
	mustClose(t, rt)
	if want := []string{"producer", "successor", "queued"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSuccessorBoundedRun: a long chain cannot keep the only worker from a
// ready task queued beside it. The independent task is submitted while the
// chain's head runs; at most successorRun links run as successors before the
// chain goes to the queue's tail, behind it.
func TestSuccessorBoundedRun(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 1, Window: 2048}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			const links = 1000
			var ran atomic.Int64
			headRunning, gate := make(chan struct{}), make(chan struct{})
			chain := make([]Task, links)
			chain[0] = Task{Deps: []Dep{InOut(addrChain)}, Do: do(func() { ran.Add(1); close(headRunning); <-gate })}
			for i := 1; i < links; i++ {
				chain[i] = Task{Deps: []Dep{InOut(addrChain)}, Do: do(func() { ran.Add(1) })}
			}
			ctx := context.Background()
			if _, err := rt.SubmitAll(ctx, chain); err != nil {
				t.Fatal(err)
			}
			<-headRunning
			var ahead atomic.Int64
			rt.MustSubmit(Task{Deps: []Dep{Out(addrIndependent)}, Do: do(func() { ahead.Store(ran.Load()) })})
			close(gate)
			if err := rt.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if further := ahead.Load() - 1; further > successorRun+1 {
				t.Errorf("%d chain links ran after the head before the queued task started, want at most %d",
					further, successorRun+1)
			}
			if ran.Load() != links {
				t.Errorf("%d of %d chain links ran", ran.Load(), links)
			}
		})
	}
}

// TestSuccessorKeepsSequentialSemantics replays a wavefront and a random DAG
// — graphs in which almost every task is released by a finisher, and so most
// run as somebody's successor — and checks the event stream against the
// dependency-graph oracle: no body starts before all its predecessors' have
// finished.
func TestSuccessorKeepsSequentialSemantics(t *testing.T) {
	sources := map[string]func() workload.Source{
		"wavefront": func() workload.Source {
			return workload.Grid(workload.GridConfig{Pattern: workload.PatternWavefront, Rows: 24, Cols: 25, Seed: 3})
		},
		"randdag": func() workload.Source {
			return workload.RandomDAG(workload.RandomDAGConfig{Tasks: 600, Seed: 3})
		},
	}
	for srcName, mk := range sources {
		n := mk().Total()
		for rtName, rt := range newRuntimes(Config{Workers: 2, EventBuffer: 8 * n}) {
			t.Run(srcName+"/"+rtName, func(t *testing.T) {
				g := depgraph.Build(mk())
				if _, err := Replay(context.Background(), rt, mk(), ReplayOptions{ZeroCost: true}); err != nil {
					t.Fatal(err)
				}
				mustClose(t, rt)
				checkRunOrder(t, rt, g)
			})
		}
	}
}
