package starss

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Tests for the goroutines a runtime starts and stops, and the allocation
// and size guards on the admission path.

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

// TestCloseDrainsBurst: Close right behind a burst of tasks waits for every
// one of them — queued, waiting on a key or running — and leaves the ready
// queue empty.
func TestCloseDrainsBurst(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := New(Config{Workers: 2, Window: 64})
		var ran atomic.Int32
		tasks := make([]Task, 200)
		for i := range tasks {
			tasks[i] = Task{
				Deps: []Dep{InOut(uint64(i % 16))},
				Do:   func(context.Context) error { ran.Add(1); return nil },
			}
		}
		handles, err := rt.SubmitAll(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		mustClose(t, rt)
		if ran.Load() != 200 {
			t.Fatalf("round %d: ran %d of 200", round, ran.Load())
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
// nameless task — a chunk of one — costs its node and its handle, nothing
// else, whether the task is free to run or has to wait, and a SubmitAll
// chunk of chunkMax such tasks costs its handle block and the handle slice
// it returns, nothing per task: its node block is the one the previous chunk
// drained, off the runtime's free list. (The chunk budget has room for one
// more: a collection may take the listed block, and the chunk after it
// allocates a new one — three allocations, the block, its node array and its
// weak pointer, once in AllocsPerRun's twenty runs.) A waiting task queues
// through the access slots inside its node (the kick-off list is
// intrusive), so the "held" rows submit a writer that blocks on every key,
// then the measured task or chunk behind it, and must come out at the
// budget for both. (A chunk of tasks
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
			{"1 address", Task{Deps: []Dep{InOut(1)}, Do: nop}},
			{"2 addresses", Task{Deps: []Dep{InOut(1 << 40), In(1 << 41)}, Do: nop}},
			{"3 addresses", Task{Deps: []Dep{In(2), In(3), Out(4)}, Do: nop}},
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

// TestSubmitAllBytes pins the bytes of a SubmitAll chunk, not only their
// count: a prebuilt chunk of chunkMax dependency-free tasks, admitted with the
// collector off so every chunk reuses the node block the one before drained,
// costs its handle block and the handle slice it returns — chunkMax × (32 + 8)
// B, 10 KiB — and nothing else. The slack, 2 KiB a chunk, is the allocator's:
// it puts an 8-byte header on each of the two, which contain pointers, and
// rounds them up to its 9472- and 2304-byte size classes, 11776 B in all. A
// 56-byte handle would take a 16 KiB block: 18688 B a chunk. TotalAlloc
// counts every byte the heap hands out, so the pin needs no quiet host.
func TestSubmitAllBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only without the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const chunks, slack = 64, 2048
	ctx := context.Background()
	rt := New(Config{Workers: 1, Window: chunkMax})
	tasks := make([]Task, chunkMax)
	for i := range tasks {
		tasks[i] = Task{Do: emptyBody}
	}
	run := func() {
		handles, err := rt.SubmitAll(ctx, tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range handles {
			for !h.finished() {
				runtime.Gosched()
			}
		}
	}
	for range 8 {
		run() // warm-up: the node block, the ready queue, goroutine stacks
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range chunks {
		run()
	}
	runtime.ReadMemStats(&after)
	mustClose(t, rt)
	got := (after.TotalAlloc - before.TotalAlloc) / chunks
	const want = chunkMax * (32 + 8)
	t.Logf("%d B per %d-task chunk (handle block and slice: %d B)", got, chunkMax, want)
	if got > want+slack {
		t.Errorf("a %d-task SubmitAll chunk costs %d B, want <= %d + %d", chunkMax, got, want, slack)
	}
}

// TestTaskNodeSize pins the node at 208 bytes. A chunk of one allocates its
// node on its own, where one byte over moves it to the allocator's 224-byte
// size class; a larger chunk's block is an array with no size class to
// absorb a byte, so each byte counts chunkMax times. Either shows as
// bytes_per_task on bench/ workloads that run starss and in the live heap of
// a full window. The per-dependency access slots are sized to fit — see
// taskNode.
func TestTaskNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(taskNode{}); got > 208 {
		t.Fatalf("taskNode is %d bytes, want <= 208", got)
	}
}

// TestTaskSize pins the descriptor the node embeds at 48 bytes: a name, the
// (address, mode) list and the body. The scope rides on the node; policy
// around the body wraps Do (Retry, Deadline) and costs a task that has none
// nothing.
func TestTaskSize(t *testing.T) {
	if got := unsafe.Sizeof(Task{}); got != 48 {
		t.Fatalf("Task is %d bytes, want 48", got)
	}
}

// TestHandleSize pins the handle at 32 bytes — the task ID, the name, and
// one pointer to how the task ended (an end cell, shared by every task that
// executed): a Submit's own allocation in the 32-byte size class, and an
// element of a SubmitAll chunk's handle block, which a handle the caller
// keeps keeps whole — chunkMax × 32 B, 8 KiB.
func TestHandleSize(t *testing.T) {
	if got := unsafe.Sizeof(Handle{}); got != 32 {
		t.Fatalf("Handle is %d bytes, want 32", got)
	}
}

// TestBankAndSegmentSize pins the two sizes the table's layout was chosen
// for: a bank is one cache line, so adjacent banks' locks never share one —
// the table's header sits behind a pointer for that — and a segment, with
// the key and hash it is filed under and the free-list link that keeps the
// bank that small, stays in the 80-byte size class.
func TestBankAndSegmentSize(t *testing.T) {
	if got := unsafe.Sizeof(bank{}); got != 64 {
		t.Errorf("bank is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(segState{}); got > 80 {
		t.Errorf("segState is %d bytes, want <= 80", got)
	}
}

// TestHotWordsOwnCacheLines pins the layout of Runtime and Scope: the words
// every task only reads, and each group of words that finishing workers
// write on every task, lie at least a cache line apart, so no line holds
// bytes of two groups whatever the allocation's alignment, and Check Deps
// never fetches again a line a finisher dirtied.
func TestHotWordsOwnCacheLines(t *testing.T) {
	const line = 64
	type group struct {
		name       string
		start, end uintptr
	}
	span := func(name string, fields ...[2]uintptr) group {
		g := group{name, ^uintptr(0), 0}
		for _, f := range fields {
			g.start, g.end = min(g.start, f[0]), max(g.end, f[0]+f[1])
		}
		return g
	}
	var rt Runtime
	var s Scope
	for typ, groups := range map[string][]group{
		"Runtime": {
			span("read-mostly",
				[2]uintptr{unsafe.Offsetof(rt.cfg), unsafe.Sizeof(rt.cfg)},
				[2]uintptr{unsafe.Offsetof(rt.banks), unsafe.Sizeof(rt.banks)},
				[2]uintptr{unsafe.Offsetof(rt.mask), unsafe.Sizeof(rt.mask)},
				[2]uintptr{unsafe.Offsetof(rt.segFree), unsafe.Sizeof(rt.segFree)},
				[2]uintptr{unsafe.Offsetof(rt.seed), unsafe.Sizeof(rt.seed)},
				[2]uintptr{unsafe.Offsetof(rt.rec), unsafe.Sizeof(rt.rec)},
				[2]uintptr{unsafe.Offsetof(rt.bankStats), unsafe.Sizeof(rt.bankStats)},
				[2]uintptr{unsafe.Offsetof(rt.funnel), unsafe.Sizeof(rt.funnel)},
				[2]uintptr{unsafe.Offsetof(rt.stopped), unsafe.Sizeof(rt.stopped)}),
			span("win", [2]uintptr{unsafe.Offsetof(rt.win), unsafe.Sizeof(rt.win)}),
			span("ready", [2]uintptr{unsafe.Offsetof(rt.ready), unsafe.Sizeof(rt.ready)}),
			span("tally and hazards",
				[2]uintptr{unsafe.Offsetof(rt.tally), unsafe.Sizeof(rt.tally)},
				[2]uintptr{unsafe.Offsetof(rt.hazards), unsafe.Sizeof(rt.hazards)},
				[2]uintptr{unsafe.Offsetof(rt.firstErr), unsafe.Sizeof(rt.firstErr)}),
		},
		"Scope": {
			span("read-mostly",
				[2]uintptr{unsafe.Offsetof(s.rt), unsafe.Sizeof(s.rt)},
				[2]uintptr{unsafe.Offsetof(s.name), unsafe.Sizeof(s.name)},
				[2]uintptr{unsafe.Offsetof(s.ns), unsafe.Sizeof(s.ns)},
				[2]uintptr{unsafe.Offsetof(s.onDone), unsafe.Sizeof(s.onDone)}),
			span("win and tally",
				[2]uintptr{unsafe.Offsetof(s.win), unsafe.Sizeof(s.win)},
				[2]uintptr{unsafe.Offsetof(s.tally), unsafe.Sizeof(s.tally)}),
		},
	} {
		for i, a := range groups {
			for _, b := range groups[i+1:] {
				first, second := a, b
				if b.start < a.start {
					first, second = b, a
				}
				if second.start < first.end+line {
					t.Errorf("%s: %s ends at %d and %s starts at %d: want a %d-byte gap",
						typ, first.name, first.end, second.name, second.start, line)
				}
			}
		}
	}
}
