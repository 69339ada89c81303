package starss

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// Tests for the lock-free side of Handle Finished: an executed task gives
// up an access that frees no waiter with one compare-and-swap on the
// segment's state word, the last holder leaves the segment filed retired,
// and Check Deps restarts it in place or a sweep takes it out.

// TestRetireRacesCheckDeps runs 4 submitters and 4 workers in one namespace
// on 8 keys in 2 banks, with 1 to 3 dependencies a task in every mode, so
// finishers retire, decrement and release segments while Check Deps joins,
// queues on and restarts them. Once every task has run, the run is checked
// against the dependency graph of all the tasks in index order, which is
// Check Deps order: every task started after each predecessor ended.
func TestRetireRacesCheckDeps(t *testing.T) {
	const submitters, rounds = 4, 200
	rt := newRuntime(Config{Workers: 4, Window: 64}, 2, nil)
	var keys []uint64
	for a, per := uint64(1), [2]int{}; len(keys) < 8; a++ {
		if b := rt.bankOf(rt.hashKey(tableKey{0, a})); per[b] < 4 {
			per[b]++
			keys = append(keys, a)
		}
	}
	modes := []Mode{ModeIn, ModeIn, ModeOut, ModeInOut}
	var clock atomic.Int64
	type record struct {
		spec       trace.TaskSpec
		index      uint64
		start, end int64
	}
	var mu sync.Mutex
	var records []*record
	submit := func(g int) {
		r := rand.New(rand.NewSource(int64(g)))
		ctx := context.Background()
		for round := 0; round < rounds; round++ {
			var tasks []Task
			var recs []*record
			for n := 1 + r.Intn(16); n > 0; n-- {
				rec := &record{spec: trace.TaskSpec{Exec: 1}}
				var deps []Dep
				for _, i := range r.Perm(len(keys))[:1+r.Intn(3)] {
					deps = append(deps, Dep{keys[i], modes[r.Intn(len(modes))]})
					rec.spec.Params = append(rec.spec.Params, trace.Param{Addr: keys[i], Mode: deps[len(deps)-1].Mode})
				}
				yield := r.Intn(4) == 0
				tasks = append(tasks, Task{Deps: deps, Do: func(context.Context) error {
					rec.start = clock.Add(1)
					if yield {
						runtime.Gosched()
					}
					rec.end = clock.Add(1)
					return nil
				}})
				recs = append(recs, rec)
			}
			hs, err := rt.SubmitAll(ctx, tasks)
			if err != nil {
				t.Error(err)
				return
			}
			for i, rec := range recs {
				rec.index = hs[i].Index()
			}
			mu.Lock()
			records = append(records, recs...)
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); submit(g) }()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); _ = rt.Wait(context.Background()); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("wedged with %d tasks in flight", rt.InFlight())
	}
	mustClose(t, rt)
	if s := rt.Stats(); s.Executed != uint64(len(records)) {
		t.Fatalf("stats %v for %d tasks", s, len(records))
	}
	slices.SortFunc(records, func(a, b *record) int { return int(a.index) - int(b.index) })
	specs := make([]trace.TaskSpec, len(records))
	ivs := make([]depgraph.Interval, len(records))
	for i, rec := range records {
		specs[i] = rec.spec
		ivs[i] = depgraph.Interval{Start: sim.Time(rec.start), End: sim.Time(rec.end)}
	}
	g := depgraph.Build(workload.FromTrace(&trace.Trace{Tasks: specs}))
	if err := g.ValidateSchedule(ivs); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredSegmentStartsClean: three readers share a key; the first fails
// and poisons the segment, and the other two, which executed, give it up on
// the lock-free road — the last leaves it filed, retired, poison and all.
// The next task on the key restarts that segment in place, and must not be
// skipped: the key's history ended with its last holder. A gated task on
// another key keeps the runtime busy, so no idle sweep takes the segment out
// first.
func TestRetiredSegmentStartsClean(t *testing.T) {
	// Four workers: the busy task and the three held readers take them all.
	for name, rt := range newRuntimes(Config{Workers: 4, Window: 16}) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			busy, gate := make(chan struct{}), make(chan struct{})
			if _, err := rt.Submit(ctx, Task{Deps: []Dep{InOut(addrB)}, Do: func(context.Context) error { <-busy; return nil }}); err != nil {
				t.Fatal(err)
			}
			fail := make(chan struct{})
			held := func(context.Context) error { <-gate; return nil }
			hs, err := rt.SubmitAll(ctx, []Task{
				{Deps: []Dep{In(addrK)}, Do: func(context.Context) error { <-fail; return errBoom }},
				{Deps: []Dep{In(addrK)}, Do: held},
				{Deps: []Dep{In(addrK)}, Do: held},
			})
			if err != nil {
				t.Fatal(err)
			}
			// All three share the segment before the first fails (the maestro
			// checks a chunk one task at a time), and the failed reader gives
			// up its access before its token.
			fenceMaestro(t, rt)
			close(fail)
			waitInFlight(t, rt, 3)
			if o := hs[0].Outcome(); o != Failed {
				t.Fatalf("the failing reader ended %d, want Failed (%d)", o, Failed)
			}
			close(gate)
			waitInFlight(t, rt, 1)
			key := tableKey{0, addrK}
			h := rt.hashKey(key)
			b := &rt.banks[rt.bankOf(h)]
			b.mu.Lock()
			seg, _ := b.table.find(h, key)
			left := seg != nil && seg.state.Load() == segRetired && seg.poison != nil
			b.mu.Unlock()
			if !left {
				t.Fatal("the readers did not leave the key's segment filed, retired and poisoned")
			}
			// The first reader restarts the segment, the second joins it, and
			// the writer queues behind them and is popped by the last.
			next, err := rt.SubmitAll(ctx, []Task{
				{Deps: []Dep{In(addrK)}, Do: emptyBody},
				{Deps: []Dep{In(addrK)}, Do: emptyBody},
				{Deps: []Dep{InOut(addrK)}, Do: emptyBody},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range next {
				if err := h.Wait(ctx); err != nil {
					t.Fatalf("task %d on the key after its holders retired: %v", i, err)
				}
			}
			close(busy)
			if err := rt.Close(); !errors.Is(err, errBoom) {
				t.Fatalf("Close = %v, want the planted failure", err)
			}
			if s := rt.Stats(); s.Skipped != 0 || s.Failed != 1 {
				t.Fatalf("stats %v, want 1 failed and nothing skipped", s)
			}
		})
	}
}

// waitInFlight waits until the runtime has n tasks in flight: every other
// task has returned its token, so every access it held is given up.
func waitInFlight(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.InFlight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d tasks in flight, want %d", rt.InFlight(), n)
		}
		runtime.Gosched()
	}
}

// TestIdleRuntimeFilesNoRetired: once Wait returns, no bank files a retired
// segment — the finisher that returned the last token swept them all back
// to the free lists — so an idle runtime keeps only what those hold. The
// graph mixes readers, writers and chains, through the runtime and a Scope,
// with a WaitOn and a failure in it.
func TestIdleRuntimeFilesNoRetired(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 256}) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			s := rt.Scope("tenant")
			for round := range 3 {
				r := rand.New(rand.NewSource(int64(round)))
				tasks := make([]Task, 300)
				for i := range tasks {
					mode := []Mode{ModeIn, ModeOut, ModeInOut}[r.Intn(3)]
					tasks[i] = Task{Deps: []Dep{{uint64(r.Intn(64)) << 6, mode}, In(uint64(64+i) << 6)}, Do: emptyBody}
				}
				tasks[150].Do = func(context.Context) error { return errBoom }
				if _, err := rt.SubmitAll(ctx, tasks); err != nil {
					t.Fatal(err)
				}
				if _, err := s.SubmitAll(ctx, tasks[:100]); err != nil {
					t.Fatal(err)
				}
				if err := s.WaitOn(ctx, 0, 64); err != nil {
					t.Fatal(err)
				}
				if err := rt.Wait(ctx); !errors.Is(err, errBoom) {
					t.Fatalf("Wait = %v, want the planted failure", err)
				}
				for i := range rt.banks {
					b := &rt.banks[i]
					b.mu.Lock()
					filed, nfree := b.table.count, b.nfree
					b.mu.Unlock()
					if filed != 0 {
						t.Fatalf("round %d: idle bank %d files %d segments", round, i, filed)
					}
					if nfree > rt.segFree {
						t.Fatalf("round %d: idle bank %d keeps %d free segments, bound %d", round, i, nfree, rt.segFree)
					}
				}
			}
			if err := rt.Close(); !errors.Is(err, errBoom) {
				t.Fatalf("Close = %v, want the planted failure", err)
			}
		})
	}
}
