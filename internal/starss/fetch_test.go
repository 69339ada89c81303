package starss

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Tests for the Get Inputs phase the worker runs before a body, the
// goroutines a runtime starts, and the allocation and size guards on the
// admission path.

// TestRuntimeGoroutines: a runtime is its workers — New starts exactly
// Workers goroutines (NewMaestro one more, the resolver) and Close ends them.
func TestRuntimeGoroutines(t *testing.T) {
	for want, start := range map[int]func(Config) *Runtime{3: New, 4: NewMaestro} {
		base := runtime.NumGoroutine()
		rt := start(Config{Workers: 3})
		if got := runtime.NumGoroutine() - base; got != want {
			t.Errorf("%d goroutines started for 3 workers, want %d", got, want)
		}
		mustClose(t, rt)
		waitFor(t, "the runtime's goroutines to exit", func() bool { return runtime.NumGoroutine() == base })
	}
}

// TestPrefetchStagePanicFailsOnlyItsTask: a panicking Prefetch fails its own
// task; the tasks around it, with a Prefetch or without, and the worker that
// recovered the panic all carry on.
func TestPrefetchStagePanicFailsOnlyItsTask(t *testing.T) {
	rt := New(Config{Workers: 2})
	var ran atomic.Int32
	body := func(context.Context) error { ran.Add(1); return nil }
	bad := rt.MustSubmit(Task{Deps: []Dep{Out("a")}, Prefetch: func() { panic("fetch exploded") }, Do: body})
	ok := rt.MustSubmit(Task{Deps: []Dep{Out("b")}, Prefetch: func() {}, Do: body})
	plain := rt.MustSubmit(Task{Deps: []Dep{Out("c")}, Do: body})
	if err := rt.Wait(context.Background()); !errors.Is(err, ErrTaskPanicked) {
		t.Fatalf("Wait = %v, want ErrTaskPanicked", err)
	}
	if !errors.Is(bad.Err(), ErrTaskPanicked) || ok.Err() != nil || plain.Err() != nil {
		t.Fatalf("errs: bad=%v ok=%v plain=%v", bad.Err(), ok.Err(), plain.Err())
	}
	// Every worker is still alive: more fetches than workers go through.
	for i := 0; i < 8; i++ {
		rt.MustSubmit(Task{Deps: []Dep{Out(i)}, Prefetch: func() {}, Do: body})
	}
	if err := rt.Close(); !errors.Is(err, ErrTaskPanicked) {
		t.Fatalf("Close = %v", err)
	}
	if got := ran.Load(); got != 10 {
		t.Fatalf("%d bodies ran, want 10 (all but the task whose Prefetch panicked)", got)
	}
	if st := rt.Stats(); st.Failed != 1 || st.Skipped != 0 || st.Executed != 10 {
		t.Fatalf("stats = %s", st)
	}
}

// TestCloseDrainsPrefetchStage: Close right behind a burst of Prefetch tasks
// waits for every one of them — queued, being fetched or running — and
// leaves the ready queue empty.
func TestCloseDrainsPrefetchStage(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := New(Config{Workers: 2, Window: 64})
		var fetched, ran atomic.Int32
		tasks := make([]Task, 200)
		for i := range tasks {
			tasks[i] = Task{
				Deps:     []Dep{InOut(i % 16)},
				Prefetch: func() { fetched.Add(1) },
				Do:       func(context.Context) error { ran.Add(1); return nil },
			}
		}
		handles, err := rt.SubmitAll(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		mustClose(t, rt)
		if fetched.Load() != 200 || ran.Load() != 200 {
			t.Fatalf("round %d: fetched %d, ran %d of 200", round, fetched.Load(), ran.Load())
		}
		for _, h := range handles {
			if !h.finished() {
				t.Fatalf("round %d: handle %s pending after Close", round, h.Name())
			}
		}
		if rt.ready.len() != 0 {
			t.Fatalf("round %d: ready queue not empty after Close", round)
		}
	}
}

// TestSubmitAllocations pins the admission diet: in steady state (keys
// recycled, segments coming off the bank free lists) one Submit of a
// nameless task costs its node and its handle, nothing else — whether the
// task is free to run or has to wait — and a SubmitAll chunk of chunkMax
// such tasks costs its handle block and the handle slice it returns, nothing
// per task: its node block is the one the previous chunk drained, off the
// runtime's free list. (The budget has room for one more: a collection may
// take the listed block, and the chunk after it allocates a new one — three
// allocations, the block, its node array and its weak pointer, once in
// AllocsPerRun's twenty runs.) A waiting task queues through the access slots
// inside its node (the kick-off list is intrusive), so the "held" rows
// submit a writer that blocks on every key, then the measured task or chunk
// behind it, and must come out at the budget for both. (A chunk of tasks
// on the same keys waits on itself too: each task queues behind the one
// before it.) The maestro baseline is held to the same budget: its two
// rendezvous move the node, they do not copy it.
func TestSubmitAllocations(t *testing.T) {
	ctx := context.Background()
	nop := func(context.Context) error { return nil }
	gate := make(chan struct{})
	await := func(h *Handle) {
		// Spin rather than Wait: a handle's done channel is only made for
		// callers that block on it.
		for !h.finished() {
			runtime.Gosched()
		}
	}
	for name, rt := range newRuntimes(Config{Workers: 1, Window: 2 * chunkMax}) {
		for _, tc := range []struct {
			name string
			task Task
		}{
			{"1 key", Task{Deps: []Dep{InOut(uint64(1))}, Do: nop}},
			{"3 keys", Task{Deps: []Dep{In(uint64(2)), In(uint64(3)), Out(uint64(4))}, Do: nop}},
			{"2 addresses", Task{Deps: []Dep{Addr(1<<40, ModeInOut), Addr(1<<41, ModeIn)}, Do: nop}},
			{"an address and a string", Task{Deps: []Dep{Addr(1<<42, ModeIn), Out("block")}, Do: nop}},
		} {
			submit := func() *Handle {
				h, err := rt.Submit(ctx, tc.task)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			chunk := make([]Task, chunkMax)
			for i := range chunk {
				chunk[i] = tc.task
			}
			submitAll := func() []*Handle {
				handles, err := rt.SubmitAll(ctx, chunk)
				if err != nil {
					t.Fatal(err)
				}
				return handles
			}
			awaitAll := func(handles []*Handle) {
				for _, h := range handles {
					await(h)
				}
			}
			// The holder writes every key of the measured task, so that
			// task queues on each of its segments.
			holder := Task{Do: func(context.Context) error { <-gate; return nil }}
			for _, d := range tc.task.Deps {
				d.Mode = ModeInOut
				holder.Deps = append(holder.Deps, d)
			}
			hold := func() *Handle {
				h, err := rt.Submit(ctx, holder)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			release := func(hold *Handle) {
				gate <- struct{}{}
				await(hold)
			}
			for _, run := range []struct {
				name   string
				budget float64
				runs   int
				f      func()
			}{
				{"free", 2, 500, func() { await(submit()) }},
				{"held", 4, 500, func() { hh := hold(); h := submit(); release(hh); await(h) }},
				{"chunk", 3, 20, func() { awaitAll(submitAll()) }},
				{"held chunk", 5, 20, func() { hh := hold(); hs := submitAll(); release(hh); awaitAll(hs) }},
			} {
				for i := 0; i < run.runs/5; i++ {
					run.f() // warm-up: map buckets, free lists, goroutine stacks
				}
				got := testing.AllocsPerRun(run.runs, run.f)
				t.Logf("%s, %s, %s: %.2f allocations", name, tc.name, run.name, got)
				if got > run.budget {
					t.Errorf("%s, %s, %s: %.2f allocations, want <= %.0f", name, tc.name, run.name, got, run.budget)
				}
			}
		}
		mustClose(t, rt)
	}
}

// TestTaskNodeSize pins the node at 256 bytes. Submit allocates it on its
// own, where one byte over moves it to the allocator's 288-byte size class;
// SubmitAll takes a chunk's nodes from one node block, an array with no size
// class to absorb a byte, so each byte counts chunkMax times. Either shows as
// bytes_per_task on bench/ workloads that run starss and in the live heap of
// a full window. The per-dependency access slots are sized to fit — see
// taskNode — and the block pointer took the node's last free word.
func TestTaskNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(taskNode{}); got > 256 {
		t.Fatalf("taskNode is %d bytes, want <= 256", got)
	}
}

// TestHandleSize pins the handle at 64 bytes: a Submit's own allocation in
// the 64-byte size class, and an element of a SubmitAll chunk's handle block,
// which a handle the caller keeps keeps whole — chunkMax × 64 B, 16 KiB. The
// completion channel sits behind one typed pointer, not in an interface.
func TestHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Handle{}); got > 64 {
		t.Fatalf("Handle is %d bytes, want <= 64", got)
	}
}

// TestBankAndSegmentSize pins the two sizes the table's layout was chosen
// for: a bank is one cache line, so adjacent banks' locks never share one —
// the table's header sits behind a pointer for that — and a segment, with
// the key and hash it is filed under and the free-list link that keeps the
// bank that small, stays in the 96-byte size class.
func TestBankAndSegmentSize(t *testing.T) {
	if got := unsafe.Sizeof(bank{}); got != 64 {
		t.Errorf("bank is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(segState{}); got > 96 {
		t.Errorf("segState is %d bytes, want <= 96", got)
	}
}
