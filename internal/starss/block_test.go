package starss

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"weak"
)

// Tests for the admission blocks: SubmitAll puts a chunk's task nodes in
// one node block and its handles in another, so what one task keeps alive,
// the whole chunk may. These pin what a finished task, a kept handle and a
// drained chunk leave reachable — with weak pointers, which a collection
// clears once nothing else reaches their object — that no admission path
// reads a node it has handed over, and how drained node blocks are reused:
// by the next chunk of their class, zeroed, and never past a collection once
// the runtime is idle.
// Tests that pin a block's identity across chunks turn the collector off,
// which would otherwise be free to take the block in between.

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
				tasks[0] = Task{Deps: []Dep{InOut(0x40)}, Do: func(context.Context) error {
					<-gate
					held[0]++
					return nil
				}}
				mates := make([]weak.Pointer[payload], 0, n-1)
				for i := 1; i < n; i++ {
					p := new(payload)
					mates = append(mates, weak.Make(p))
					tasks[i] = Task{Deps: []Dep{InOut(0x40 + uint64(i)<<6)}, Do: func(context.Context) error {
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
	handles, nodes := queuedChunkNodes(t, rt, key, n, gate)
	return handles, weak.Make(nodes[n/2])
}

// queuedChunkNodes is queuedChunk returning the waiting nodes themselves, in
// submission order. The writer runs before the readers are submitted: a
// reader of an earlier round may not have given the key up yet when its
// handle reports done, and the writer would queue behind it.
func queuedChunkNodes(t *testing.T, rt *Runtime, key uint64, n int, gate <-chan struct{}) ([]*Handle, []*taskNode) {
	t.Helper()
	ctx := context.Background()
	started := make(chan struct{})
	if _, err := rt.Submit(ctx, Task{Deps: []Dep{InOut(key)}, Do: func(context.Context) error { close(started); <-gate; return nil }}); err != nil {
		t.Fatal(err)
	}
	<-started
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Deps: []Dep{In(key)}, Do: emptyBody}
	}
	handles, err := rt.SubmitAll(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	fenceMaestro(t, rt)
	waiters := hotWaiters(t, rt, key)
	if len(waiters) != n {
		t.Fatalf("%d tasks wait on key %#x, want %d", len(waiters), key, n)
	}
	return handles, waiters
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

// TestRetentionDrainedChunk: a chunk's node block outlives its chunk only on
// the free list. While the runtime stays busy — a later chunk still queued —
// the list holds the drained block for the next chunk of its class, across
// collections; once the runtime is idle, neither block is reachable.
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
			if collected(drained) {
				t.Error("the free list let a drained chunk's node block go while tasks were in flight")
			}
			if queued.Value() == nil {
				t.Error("a queued chunk's node block was collected")
			}
			close(later)
			if err := rt.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			if !collected(drained, queued) {
				t.Error("an idle runtime keeps a drained chunk's node block")
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
				key := func(j int) Dep { return InOut(uint64(4*i+j) << 6) }
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

// listed copies node block class c's free list, oldest entry first, as the
// weak pointers it keeps once the runtime is idle.
func listed(rt *Runtime, c int) []weak.Pointer[nodeBlock] {
	l := &rt.blocks[c]
	l.mu.Lock()
	defer l.mu.Unlock()
	free := make([]weak.Pointer[nodeBlock], len(l.free))
	for i, e := range l.free {
		free[i] = e.weak
	}
	return free
}

// waitAll waits for every handle, failing the test on a task error.
func waitAll(t *testing.T, handles []*Handle) {
	t.Helper()
	for _, h := range handles {
		if err := h.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNodeBlockReused: a drained chunk's node block is the one the next chunk
// of its class takes — the same Task Pool entries, node for node — when no
// collection runs in between.
func TestNodeBlockReused(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 64}) {
		t.Run(name, func(t *testing.T) {
			var first []*taskNode
			// Chunks of 8 and of 5 tasks: both take a block of 8 nodes.
			for round, n := range []int{8, 5} {
				gate := make(chan struct{})
				handles, nodes := queuedChunkNodes(t, rt, 0x40, n, gate)
				if round == 0 {
					first = nodes
				}
				for i, node := range nodes {
					if node != first[i] {
						t.Errorf("chunk %d, task %d: node %p, the drained chunk's was %p", round, i, node, first[i])
					}
				}
				close(gate)
				waitAll(t, handles)
			}
			mustClose(t, rt)
		})
	}
}

// TestNodeBlockClass: a chunk of n ≥ 2 tasks — through Scope.TrySubmitAll
// here, which admits like SubmitAll — takes a block of at most the next
// power of two nodes, so an 8-task chunk holds 8 nodes, not chunkMax; chunks
// run one after another share one block per class; and a chunk of one takes
// none.
func TestNodeBlockClass(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for name, rt := range newRuntimes(Config{Workers: 2, Window: chunkMax}) {
		t.Run(name, func(t *testing.T) {
			s := rt.Scope("tenant")
			for n := 1; n <= chunkMax; n++ {
				tasks := make([]Task, n)
				for i := range tasks {
					tasks[i] = Task{Deps: []Dep{InOut(uint64(i) << 6)}, Do: emptyBody}
				}
				handles, err := s.TrySubmitAll(ctx, tasks)
				if err != nil {
					t.Fatal(err)
				}
				waitAll(t, handles)
				// A task returns its window token after its handle is
				// published; the next all-or-nothing chunk needs them all.
				if err := rt.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				if n == 1 {
					for c := range blockClasses {
						if free := listed(rt, c); len(free) != 0 {
							t.Fatalf("a chunk of one listed a block in class %d", c)
						}
					}
					continue
				}
				// The block the chunk drained is the one its class listed last.
				free := listed(rt, blockClassOf(n))
				if len(free) == 0 {
					t.Fatalf("chunk of %d: no block listed", n)
				}
				blk := free[len(free)-1].Value()
				if blk == nil {
					t.Fatalf("chunk of %d: its block was collected", n)
				}
				if got, most := len(blk.nodes), 2<<blockClassOf(n); got < n || got > most {
					t.Errorf("chunk of %d took a block of %d nodes, want %d to %d", n, got, n, most)
				}
			}
			for c := range blockClasses {
				if free := listed(rt, c); len(free) != 1 {
					t.Errorf("class %d lists %d blocks, want the one its chunks shared", c, len(free))
				}
			}
			mustClose(t, rt)
		})
	}
}

// TestNodeBlockListedZero: every node of a listed block is zero, whatever
// its task left in it — a name, spilled dependencies, a scope, a failure, a
// poisoned dependent's error — so a free block pins nothing.
func TestNodeBlockListedZero(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := context.Background()
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 512}) {
		t.Run(name, func(t *testing.T) {
			// 300 tasks: a chunk of chunkMax and one of 44, then a scope's 8.
			tasks := make([]Task, 300)
			for i := range tasks {
				deps := []Dep{InOut(uint64(i%7) << 6)}
				if i%5 == 0 {
					for j := range inlineDeps + 2 {
						deps = append(deps, In(uint64(8+j)<<6)) // shared, past the i%7 above
					}
				}
				tasks[i] = Task{Name: "task" + itoa(i), Deps: deps, Do: emptyBody}
				if i%50 == 10 {
					tasks[i].Do = func(context.Context) error { return errBoom }
				}
			}
			if _, err := rt.SubmitAll(ctx, tasks); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Scope("tenant").TrySubmitAll(ctx, slices.Clone(tasks[:8])); err != nil {
				t.Fatal(err)
			}
			if err := rt.Wait(ctx); !errors.Is(err, errBoom) {
				t.Fatalf("Wait: %v, want the planted failure", err)
			}
			blocks := 0
			for c := range blockClasses {
				for _, wp := range listed(rt, c) {
					blk := wp.Value()
					if blk == nil {
						continue
					}
					blocks++
					if n := blk.live.Load(); n != 0 {
						t.Errorf("a listed block counts %d live tasks", n)
					}
					for i := range blk.nodes {
						if !reflect.ValueOf(&blk.nodes[i]).Elem().IsZero() {
							t.Errorf("node %d of a listed %d-node block holds %+v", i, len(blk.nodes), blk.nodes[i].task)
						}
					}
				}
			}
			if blocks != 3 {
				t.Errorf("%d blocks listed, want the three chunks'", blocks)
			}
			if err := rt.Close(); !errors.Is(err, errBoom) {
				t.Errorf("Close: %v, want the planted failure", err)
			}
		})
	}
}

// TestNodeBlockCollectedIdle: the free list holds its blocks weakly, so an
// idle runtime keeps no node block past a collection.
func TestNodeBlockCollectedIdle(t *testing.T) {
	ctx := context.Background()
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 512}) {
		t.Run(name, func(t *testing.T) {
			tasks := make([]Task, 300)
			for i := range tasks {
				tasks[i] = Task{Deps: []Dep{InOut(uint64(i) << 6)}, Do: emptyBody}
			}
			if _, err := rt.SubmitAll(ctx, tasks); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Scope("tenant").TrySubmitAll(ctx, tasks[:3]); err != nil {
				t.Fatal(err)
			}
			if err := rt.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			var free []weak.Pointer[nodeBlock]
			for c := range blockClasses {
				free = append(free, listed(rt, c)...)
			}
			// Entries leave the list when a chunk meets them, not when their
			// block is collected: all three chunks' are there.
			if len(free) != 3 {
				t.Fatalf("%d blocks listed, want the three chunks'", len(free))
			}
			if !collected(free...) {
				t.Error("an idle runtime keeps a drained chunk's node block past a collection")
			}
			mustClose(t, rt)
		})
	}
}

// TestNodeBlockListBounded: entries whose block was collected are dropped
// when a chunk meets them, so across repeated collections a class's free
// list never outgrows the most blocks its chunks held at once.
func TestNodeBlockListBounded(t *testing.T) {
	const chunks = 3
	for name, rt := range newRuntimes(Config{Workers: 2, Window: chunks*chunkMax + 8}) {
		t.Run(name, func(t *testing.T) {
			for round := range 10 {
				// One SubmitAll of three chunks, all held at once behind the gate.
				gate := make(chan struct{})
				handles, _ := queuedChunkNodes(t, rt, 0x40, chunks*chunkMax, gate)
				close(gate)
				waitAll(t, handles)
				runtime.GC()
				if n := len(listed(rt, blockClassOf(chunkMax))); n > chunks {
					t.Fatalf("round %d: %d blocks listed, want at most %d", round, n, chunks)
				}
			}
			mustClose(t, rt)
		})
	}
}

// TestSegmentReuseSecondPass: the banks keep every segment a window of
// multi-key tasks files, so the second pass of a graph allocates none: it
// takes each off a free list, or restarts in place one still filed retired.
// The graph is a wavefront whose first row and column also read
// an input row and column nobody writes — one segment per key, more keys
// than tasks — held whole behind its first task, so every key is live at
// once; the window has room for the grid and a maestro fence. Free lists
// bounded at one segment per task of a bank's share would drop some at the
// end of the first pass, and the second would allocate them again.
func TestSegmentReuseSecondPass(t *testing.T) {
	const side = 16
	const tasks = side * side
	const keys = tasks + 2*side
	ctx := context.Background()
	cell := func(r, c int) uint64 { return uint64((r+1)*(side+1)+c+1) << 6 }
	cfg := Config{Workers: 2, Window: tasks + 8}
	for name, rt := range map[string]*Runtime{"sharded": newRuntime(cfg, 4, nil), "maestro": NewMaestro(cfg)} {
		t.Run(name, func(t *testing.T) {
			free := map[*segState]bool{}
			for pass := range 2 {
				gate := make(chan struct{})
				batch := make([]Task, 0, tasks)
				for r := range side {
					for c := range side {
						batch = append(batch, Task{Deps: []Dep{
							In(cell(r-1, c)),
							In(cell(r, c-1)),
							InOut(cell(r, c)),
						}, Do: emptyBody})
					}
				}
				batch[0].Do = func(context.Context) error { <-gate; return nil }
				if _, err := rt.SubmitAll(ctx, batch); err != nil {
					t.Fatal(err)
				}
				fenceMaestro(t, rt)
				live, fresh := 0, 0
				for i := range rt.banks {
					b := &rt.banks[i]
					b.mu.Lock()
					for _, s := range b.table.slots {
						if s.seg != nil && s.seg.state.Load() != segRetired {
							live++
							if !free[s.seg] {
								fresh++
							}
						}
					}
					b.mu.Unlock()
				}
				if live != keys {
					t.Fatalf("pass %d: %d keys live behind the gate, want %d", pass, live, keys)
				}
				if pass == 1 && fresh > 0 {
					t.Errorf("second pass: %d of %d segments were allocated, not taken off a free list", fresh, keys)
				}
				close(gate)
				if err := rt.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				// What the second pass may file without allocating: the free
				// lists, and any segment still filed, to be restarted in place.
				for i := range rt.banks {
					b := &rt.banks[i]
					b.mu.Lock()
					for seg := b.free; seg != nil; seg = seg.nextFree {
						free[seg] = true
					}
					for _, s := range b.table.slots {
						if s.seg != nil {
							free[s.seg] = true
						}
					}
					b.mu.Unlock()
				}
			}
			mustClose(t, rt)
		})
	}
}
