package starss

import (
	"context"
	"math/rand"
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

// Tests for Check Deps a chunk at a time: the admission lock that keeps
// concurrent submitters of one namespace from deadlocking, and the one lock
// per bank a chunk takes.

// TestConcurrentChunksNoDeadlock runs 2 and 8 submitters in one namespace —
// the runtime's, then one Scope's — on two banks. Every task writes (or
// reads) one key of each bank, so two chunks filed bank by bank in different
// orders could each hold a key the other waits for: without the namespace's
// admission lock, a submitter that overtakes another between its banks
// deadlocks the pair. Chunks are mixed with Submit and WaitOn. Once every
// task has run, the run is checked against the dependency graph of all the
// tasks in index order, which the admission lock makes Check Deps order: every
// task started after each predecessor ended.
func TestConcurrentChunksNoDeadlock(t *testing.T) {
	for _, submitters := range []int{2, 8} {
		for _, scoped := range []bool{false, true} {
			rt := newRuntime(Config{Workers: 2, Window: 128}, 2, nil)
			s, ns := (*Scope)(nil), uint64(0)
			if scoped {
				s = rt.Scope("chunks")
				ns = s.ns
			}
			// Two keys in each bank.
			var keys [2][]uint64
			for a := uint64(1); len(keys[0]) < 2 || len(keys[1]) < 2; a++ {
				b := rt.bankOf(rt.hashKey(tableKey{ns, a}))
				if len(keys[b]) < 2 {
					keys[b] = append(keys[b], a)
				}
			}
			var clock atomic.Int64
			type record struct {
				spec       trace.TaskSpec
				index      uint64
				start, end int64
			}
			var mu sync.Mutex
			var records []*record
			newTask := func(r *rand.Rand) (Task, *record) {
				rec := &record{spec: trace.TaskSpec{Exec: 1}}
				var deps []Dep
				for b := range keys {
					mode := ModeInOut
					if r.Intn(4) == 0 {
						mode = ModeIn
					}
					deps = append(deps, Dep{keys[b][r.Intn(2)], mode})
				}
				if r.Intn(2) == 0 {
					deps[0], deps[1] = deps[1], deps[0] // declared in the other bank order
				}
				for _, d := range deps {
					rec.spec.Params = append(rec.spec.Params, trace.Param{Addr: d.Addr, Mode: d.Mode})
				}
				return Task{Deps: deps, Do: func(context.Context) error {
					rec.start = clock.Add(1)
					rec.end = clock.Add(1)
					return nil
				}}, rec
			}
			submit := func(g int) {
				r := rand.New(rand.NewSource(int64(g)))
				ctx := context.Background()
				for round := 0; round < 250; round++ {
					var tasks []Task
					var recs []*record
					for n := 1 + r.Intn(24); n > 0; n-- {
						task, rec := newTask(r)
						tasks, recs = append(tasks, task), append(recs, rec)
					}
					var hs []*Handle
					var err error
					switch round % 6 {
					case 3:
						hs = make([]*Handle, len(tasks))
						for i := range tasks {
							if hs[i], err = rt.submitOne(ctx, s, tasks[i]); err != nil {
								break
							}
						}
					case 5:
						err = rt.waitOn(ctx, s, []uint64{keys[0][0], keys[1][1]})
						recs = nil
					default:
						hs, err = rt.submit(ctx, ctx, s, tasks, nil, false)
					}
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
				t.Fatalf("%d submitters, scoped %v: deadlocked with %d tasks in flight", submitters, scoped, rt.InFlight())
			}
			mustClose(t, rt)
			slices.SortFunc(records, func(a, b *record) int { return int(a.index) - int(b.index) })
			specs := make([]trace.TaskSpec, len(records))
			ivs := make([]depgraph.Interval, len(records))
			for i, rec := range records {
				specs[i] = rec.spec
				ivs[i] = depgraph.Interval{Start: sim.Time(rec.start), End: sim.Time(rec.end)}
			}
			g := depgraph.Build(workload.FromTrace(&trace.Trace{Tasks: specs}))
			if err := g.ValidateSchedule(ivs); err != nil {
				t.Fatalf("%d submitters, scoped %v: %v", submitters, scoped, err)
			}
		}
	}
}

// TestChunkLocksEachBankOnce: Check Deps locks each bank a chunk's keys live
// in once for the whole chunk, so admitting chunkMax tasks on distinct keys —
// none waits for another — takes one acquisition per distinct bank, not one
// per task. The bodies are held until the count is read, so no Handle
// Finished adds its own.
func TestChunkLocksEachBankOnce(t *testing.T) {
	rt := New(Config{Workers: 1, Window: chunkMax, BankCounters: true})
	gate := make(chan struct{})
	tasks := make([]Task, chunkMax)
	banks := map[int32]bool{}
	for i := range tasks {
		addr := addrIndependent + uint64(i)
		banks[rt.bankOf(rt.hashKey(tableKey{0, addr}))] = true
		tasks[i] = Task{Deps: []Dep{InOut(addr)}, Do: func(context.Context) error { <-gate; return nil }}
	}
	if _, err := rt.SubmitAll(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	close(gate)
	mustClose(t, rt)
	if len(banks) < 2 {
		t.Fatalf("%d keys live in %d bank", chunkMax, len(banks))
	}
	if st.BankAcquisitions != uint64(len(banks)) {
		t.Errorf("a %d-task chunk over %d banks took %d bank acquisitions, want %d",
			chunkMax, len(banks), st.BankAcquisitions, len(banks))
	}
	if st.Hazards != 0 {
		t.Errorf("%d tasks on distinct keys waited", st.Hazards)
	}
}
