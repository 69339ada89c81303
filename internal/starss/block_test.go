package starss

import (
	"context"
	"runtime"
	"testing"
	"weak"
)

// Tests for the admission blocks: SubmitAll builds a chunk's task nodes in
// one block and its handles in another, so what one task keeps alive, the
// whole chunk may. These pin what a finished task, a kept handle and a
// drained chunk leave reachable — with weak pointers, which a collection
// clears once nothing else reaches their object — and that no admission path
// reads a node it has handed over.

// payload is an object a task body captures: large enough to stay out of the
// tiny allocator, whose blocks several small objects share.
type payload [64]byte

// collected reports whether every weak pointer's object is collected within
// a few collections.
func collected[T any](wps ...weak.Pointer[T]) bool {
	for range 5 {
		runtime.GC()
		live := false
		for _, wp := range wps {
			live = live || wp.Value() != nil
		}
		if !live {
			return true
		}
	}
	return false
}

// TestRetentionChunkMateBody: while one task of a chunk is held, its
// finished chunk-mates' bodies — and whatever they captured — are garbage.
// They share the held task's block, so only a finished node letting go of
// its task keeps them from living as long as the slowest task of the chunk.
func TestRetentionChunkMateBody(t *testing.T) {
	const n = 16
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 64}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			// The batch lives in this function's frame only: once it returns,
			// the runtime is all that can keep a body alive.
			submit := func() ([]*Handle, weak.Pointer[payload], []weak.Pointer[payload]) {
				tasks := make([]Task, n)
				held := new(payload)
				tasks[0] = Task{Deps: []Dep{Addr(0x40, ModeInOut)}, Do: func(context.Context) error {
					<-gate
					held[0]++
					return nil
				}}
				mates := make([]weak.Pointer[payload], 0, n-1)
				for i := 1; i < n; i++ {
					p := new(payload)
					mates = append(mates, weak.Make(p))
					tasks[i] = Task{Deps: []Dep{Addr(0x40+uint64(i)<<6, ModeInOut)}, Do: func(context.Context) error {
						p[0]++
						return nil
					}}
				}
				handles, err := rt.SubmitAll(context.Background(), tasks)
				if err != nil {
					t.Fatal(err)
				}
				return handles, weak.Make(held), mates
			}
			handles, held, mates := submit()
			waitFor(t, "the held task's chunk-mates", func() bool {
				for _, h := range handles[1:] {
					if !h.finished() {
						return false
					}
				}
				return true
			})
			if !collected(mates...) {
				t.Error("a finished task's body outlives it while a chunk-mate runs")
			}
			if held.Value() == nil {
				t.Error("the running task's body was collected")
			}
			close(gate)
			mustClose(t, rt)
		})
	}
}

// queuedChunk submits a task that writes key and holds it until gate is
// closed, then one SubmitAll chunk of n readers of key, which queue behind
// it. It returns the chunk's handles and a weak pointer into its node block,
// taken off the key's kick-off list while they wait.
func queuedChunk(t *testing.T, rt *Runtime, key uint64, n int, gate <-chan struct{}) ([]*Handle, weak.Pointer[taskNode]) {
	t.Helper()
	ctx := context.Background()
	if _, err := rt.Submit(ctx, Task{Deps: []Dep{Addr(key, ModeInOut)}, Do: func(context.Context) error { <-gate; return nil }}); err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Deps: []Dep{Addr(key, ModeIn)}, Do: emptyBody}
	}
	handles, err := rt.SubmitAll(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	fenceMaestro(t, rt)
	waiters := hotWaiters(t, rt, Addr(key, ModeIn))
	if len(waiters) != n {
		t.Fatalf("%d tasks wait on key %#x, want %d", len(waiters), key, n)
	}
	return handles, weak.Make(waiters[n/2])
}

// TestRetentionKeptHandle: a handle the caller keeps keeps its chunk's
// handle block, never its node block.
func TestRetentionKeptHandle(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 64}) {
		t.Run(name, func(t *testing.T) {
			gate := make(chan struct{})
			handles, block := queuedChunk(t, rt, 0x40, 8, gate)
			close(gate)
			for _, h := range handles {
				if err := h.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if !collected(block) {
				t.Error("a kept handle keeps its task's node block reachable")
			}
			for i, h := range handles {
				if h.Outcome() != Executed || h.Index() != handles[0].Index()+uint64(i) {
					t.Errorf("kept handle %d: %v, index %d", i, h.Outcome(), h.Index())
				}
			}
			mustClose(t, rt)
		})
	}
}

// TestRetentionDrainedChunk: a chunk's node block is garbage once the chunk
// has drained, on a runtime that stays open and busy — while the block of a
// later chunk, still queued, is not.
func TestRetentionDrainedChunk(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 64}) {
		t.Run(name, func(t *testing.T) {
			first, later := make(chan struct{}), make(chan struct{})
			handles, drained := queuedChunk(t, rt, 0x40, 8, first)
			_, queued := queuedChunk(t, rt, 0x80, 8, later)
			close(first)
			for _, h := range handles {
				if err := h.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if !collected(drained) {
				t.Error("a drained chunk's node block is still reachable")
			}
			if queued.Value() == nil {
				t.Error("a queued chunk's node block was collected")
			}
			close(later)
			if err := rt.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !collected(queued) {
				t.Error("the later chunk's node block is still reachable once it drained")
			}
			mustClose(t, rt)
		})
	}
}

// TestTaskFinishesBeforeSubmitReturns: a task may finish — and its node be
// cleared — before the call that admitted it returns: on a worker, on the
// maestro, or, for a WaitOn on free keys, on the submitter itself inside the
// call. Every admission path must have its handle in hand before it hands
// the node over; the race detector reports a read of the node after the
// hand-off whichever side wins, and zero-cost bodies on free keys make the
// task the likely winner.
func TestTaskFinishesBeforeSubmitReturns(t *testing.T) {
	const rounds = 200
	ctx := context.Background()
	// A window no round can fill: TrySubmitAll refuses rather than waits.
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 4 * rounds}) {
		t.Run(name, func(t *testing.T) {
			s := rt.Scope("tenant")
			var handles []*Handle
			early := 0
			for i := range rounds {
				key := func(j int) Dep { return Addr(uint64(4*i+j)<<6, ModeInOut) }
				h, err := rt.Submit(ctx, Task{Name: "single", Deps: []Dep{key(0)}, Do: emptyBody})
				if err != nil {
					t.Fatal(err)
				}
				if h.finished() {
					early++
				}
				all, err := rt.SubmitAll(ctx, []Task{{Name: "batch", Deps: []Dep{key(1)}, Do: emptyBody}})
				if err != nil {
					t.Fatal(err)
				}
				scoped, err := s.TrySubmitAll(ctx, []Task{{Name: "scoped", Deps: []Dep{key(2)}, Do: emptyBody}})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(append(append(handles, h), all...), scoped...)
				// A fresh key: the WaitOn's task is ready at once and finishes
				// inside the call.
				before := rt.Stats().Executed
				if err := rt.WaitOn(ctx, uint64(4*i+3)<<6); err != nil {
					t.Fatal(err)
				}
				if rt.Stats().Executed == before {
					t.Fatal("WaitOn returned before its task finished")
				}
			}
			if err := rt.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d of %d submitted tasks had finished when Submit returned", early, rounds)
			for i, h := range handles {
				want := [...]string{"single", "batch", "scoped"}[i%3]
				if h.Name() != want || h.Outcome() != Executed {
					t.Errorf("handle %d: %s, %v; want %s, executed", i, h.Name(), h.Outcome(), want)
				}
				if i > 0 && h.Index() <= handles[i-1].Index() {
					t.Errorf("handle %d: index %d after %d", i, h.Index(), handles[i-1].Index())
				}
			}
			mustClose(t, rt)
		})
	}
}
