package starss

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"nexuspp/internal/sim"
)

func TestModeString(t *testing.T) {
	if ModeIn.String() != "in" || ModeOut.String() != "out" || ModeInOut.String() != "inout" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestDepConstructors(t *testing.T) {
	if In("k") != (Dep{Key: "k", Mode: ModeIn}) ||
		Out("k") != (Dep{Key: "k", Mode: ModeOut}) ||
		InOut("k") != (Dep{Key: "k", Mode: ModeInOut}) {
		t.Error("constructors wrong")
	}
}

func TestNormalizeDeps(t *testing.T) {
	deps := normalizeDeps([]Dep{In("a"), Out("a"), In("b"), In("b")})
	if len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	if deps[0].Key != "a" || deps[0].Mode != ModeInOut {
		t.Errorf("merged dep = %v, want a/inout", deps[0])
	}
	if deps[1].Key != "b" || deps[1].Mode != ModeIn {
		t.Errorf("dep b = %v", deps[1])
	}
}

func TestBasicExecution(t *testing.T) {
	rt := New(Config{Workers: 4})
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		rt.MustSubmit(Task{
			Deps: []Dep{InOut(i)},
			Do:   do(func() { count.Add(1) }),
		})
	}
	mustClose(t, rt)
	if count.Load() != 100 {
		t.Fatalf("executed %d of 100", count.Load())
	}
	st := rt.Stats()
	if st.Submitted != 100 || st.Executed != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestChainOrdering(t *testing.T) {
	rt := New(Config{Workers: 8})
	var order []int
	var mu sync.Mutex
	for i := 0; i < 50; i++ {
		i := i
		rt.MustSubmit(Task{
			Deps: []Dep{InOut("chain")},
			Do: do(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}),
		})
	}
	mustClose(t, rt)
	if len(order) != 50 {
		t.Fatalf("ran %d", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("chain order broken at %d: %v", i, order[:i+1])
		}
	}
}

func TestRAWVisibility(t *testing.T) {
	rt := New(Config{Workers: 4})
	data := make([]int, 10)
	for i := range data {
		i := i
		rt.MustSubmit(Task{
			Deps: []Dep{Out(i)},
			Do:   do(func() { data[i] = i * i }),
		})
	}
	sum := 0
	deps := make([]Dep, 10)
	for i := range deps {
		deps[i] = In(i)
	}
	rt.MustSubmit(Task{
		Deps: deps,
		Do: do(func() {
			for _, v := range data {
				sum += v
			}
		}),
	})
	mustClose(t, rt)
	want := 0
	for i := 0; i < 10; i++ {
		want += i * i
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d (RAW visibility broken)", sum, want)
	}
}

func TestSubmitErrors(t *testing.T) {
	rt := New(Config{Workers: 1})
	if _, err := rt.Submit(context.Background(), Task{}); err == nil {
		t.Error("task without a body accepted")
	}
	if err := rt.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
	if _, err := rt.Submit(context.Background(), Task{Do: do(func() {})}); err != ErrStopped {
		t.Errorf("Submit after Close = %v, want ErrStopped", err)
	}
	if err := rt.Close(); err != nil { // idempotent
		t.Errorf("second Close = %v", err)
	}
	if err := rt.Wait(context.Background()); err != ErrStopped {
		t.Errorf("Wait after Close = %v, want ErrStopped", err)
	}
	if st := rt.Stats(); st.Submitted != 0 {
		t.Errorf("final stats = %+v", st)
	}
}

func TestBarrierWaitsForAll(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer mustClose(t, rt)
	var done atomic.Int64
	for i := 0; i < 64; i++ {
		rt.MustSubmit(Task{
			Deps: []Dep{InOut(i % 7)},
			Do:   do(func() { done.Add(1) }),
		})
	}
	rt.Wait(context.Background())
	if done.Load() != 64 {
		t.Fatalf("barrier returned with %d of 64 done", done.Load())
	}
	// The runtime stays usable after a barrier.
	rt.MustSubmit(Task{Deps: []Dep{In("x")}, Do: do(func() { done.Add(1) })})
	rt.Wait(context.Background())
	if done.Load() != 65 {
		t.Fatal("submission after barrier did not run")
	}
}

// hazardChecker verifies reader/writer exclusion at execution time: readers
// of a key may overlap each other but never a writer; writers are exclusive.
type hazardChecker struct {
	mu      sync.Mutex
	readers map[Key]int
	writers map[Key]int
	bad     []string
}

func newHazardChecker() *hazardChecker {
	return &hazardChecker{readers: map[Key]int{}, writers: map[Key]int{}}
}

func (h *hazardChecker) enter(deps []Dep) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range deps {
		if d.Mode == ModeIn {
			if h.writers[d.Key] > 0 {
				h.bad = append(h.bad, "reader overlaps writer")
			}
			h.readers[d.Key]++
		} else {
			if h.writers[d.Key] > 0 || h.readers[d.Key] > 0 {
				h.bad = append(h.bad, "writer overlaps access")
			}
			h.writers[d.Key]++
		}
	}
}

func (h *hazardChecker) exit(deps []Dep) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range deps {
		if d.Mode == ModeIn {
			h.readers[d.Key]--
		} else {
			h.writers[d.Key]--
		}
	}
}

func TestHazardExclusion(t *testing.T) {
	rt := New(Config{Workers: 8})
	h := newHazardChecker()
	rng := sim.NewRand(7)
	for i := 0; i < 500; i++ {
		var deps []Dep
		used := map[int]bool{}
		for k := 0; k <= rng.Intn(3); k++ {
			key := rng.Intn(5)
			if used[key] {
				continue
			}
			used[key] = true
			deps = append(deps, Dep{Key: key, Mode: Mode(rng.Intn(3))})
		}
		if len(deps) == 0 {
			deps = []Dep{In(99)}
		}
		norm := normalizeDeps(deps)
		rt.MustSubmit(Task{
			Deps: deps,
			Do: do(func() {
				h.enter(norm)
				defer h.exit(norm)
				spin(200)
			}),
		})
	}
	mustClose(t, rt)
	if len(h.bad) > 0 {
		t.Fatalf("hazard violations: %v", h.bad[:min(5, len(h.bad))])
	}
	if rt.Stats().Executed != 500 {
		t.Fatalf("executed = %d", rt.Stats().Executed)
	}
}

func TestPrefetchOverlap(t *testing.T) {
	// With double buffering on a single worker, the controller must start
	// prefetching task 1 while task 0 is still inside Run. Rendezvous
	// through channels makes the overlap deterministic instead of racing a
	// timing window: task 0's Run cannot finish until task 1's Prefetch has
	// observed it running, and the prefetch cannot be observed unless it
	// genuinely overlaps.
	rt := New(Config{Workers: 1, BufferingDepth: 2})
	var running atomic.Int64
	firstRunning := make(chan struct{}) // closed when task 0 enters Run
	release := make(chan struct{})      // closed by task 1's Prefetch
	var overlapped atomic.Bool
	rt.MustSubmit(Task{
		Deps: []Dep{InOut(0)},
		Do: do(func() {
			running.Add(1)
			close(firstRunning)
			// If the prefetch never overlaps (a buffering regression), time
			// out and let the assertion below report it instead of hanging.
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
			running.Add(-1)
		}),
	})
	rt.MustSubmit(Task{
		Deps: []Dep{InOut(1)},
		Prefetch: func() {
			<-firstRunning
			if running.Load() > 0 {
				overlapped.Store(true)
			}
			close(release)
		},
		Do: do(func() {}),
	})
	mustClose(t, rt)
	if !overlapped.Load() {
		t.Fatal("no prefetch overlapped execution with double buffering")
	}
}

func TestDepthOneNoPipelineOverlap(t *testing.T) {
	// With depth 1 on a single worker, prefetches never overlap runs.
	rt := New(Config{Workers: 1, BufferingDepth: 1})
	var running atomic.Int64
	overlapped := atomic.Bool{}
	for i := 0; i < 10; i++ {
		i := i
		rt.MustSubmit(Task{
			Deps: []Dep{InOut(i)},
			Prefetch: func() {
				if running.Load() > 0 {
					overlapped.Store(true)
				}
			},
			Do: do(func() {
				running.Add(1)
				spin(500)
				running.Add(-1)
			}),
		})
	}
	mustClose(t, rt)
	if overlapped.Load() {
		t.Fatal("prefetch overlapped execution despite depth 1")
	}
}

func TestWriteBackRuns(t *testing.T) {
	rt := New(Config{Workers: 2})
	var wrote atomic.Int64
	produced := 0
	consumed := -1
	rt.MustSubmit(Task{
		Deps:      []Dep{Out("v")},
		Do:        do(func() { produced = 41 }),
		WriteBack: func() { produced++; wrote.Add(1) },
	})
	rt.MustSubmit(Task{
		Deps: []Dep{In("v")},
		Do:   do(func() { consumed = produced }),
	})
	mustClose(t, rt)
	if wrote.Load() != 1 {
		t.Fatal("WriteBack did not run")
	}
	if consumed != 42 {
		t.Fatalf("consumer saw %d, want 42 (WriteBack must happen before dependents)", consumed)
	}
}

func TestWindowBackPressure(t *testing.T) {
	rt := New(Config{Workers: 1, Window: 4})
	block := make(chan struct{})
	rt.MustSubmit(Task{Deps: []Dep{InOut("k")}, Do: do(func() { <-block })})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			rt.MustSubmit(Task{Deps: []Dep{InOut("k")}, Do: do(func() {})})
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("submissions did not block on a full window")
	default:
	}
	close(block)
	<-done
	mustClose(t, rt)
	if got := rt.Stats().MaxInFlight; got > 4 {
		t.Fatalf("in-flight %d exceeded window 4", got)
	}
}

// Property: random task graphs over a small key space always execute all
// tasks without hazard violations, for any worker count and depth.
func TestRandomGraphsProperty(t *testing.T) {
	prop := func(seed uint64, wRaw, dRaw, sRaw uint8) bool {
		rng := sim.NewRand(seed)
		rt := New(Config{
			Workers:        int(wRaw%4) + 1,
			BufferingDepth: int(dRaw%3) + 1,
			Window:         64,
			Shards:         int(sRaw % 5), // 0 (default), 1, 2, 3→4, 4
		})
		h := newHazardChecker()
		n := 120
		for i := 0; i < n; i++ {
			var deps []Dep
			used := map[int]bool{}
			for k := 0; k <= rng.Intn(2); k++ {
				key := rng.Intn(4)
				if used[key] {
					continue
				}
				used[key] = true
				deps = append(deps, Dep{Key: key, Mode: Mode(rng.Intn(3))})
			}
			if len(deps) == 0 {
				deps = []Dep{In(42)}
			}
			norm := normalizeDeps(deps)
			if _, err := rt.Submit(context.Background(), Task{
				Deps: deps,
				Do: do(func() {
					h.enter(norm)
					defer h.exit(norm)
					spin(50)
				}),
			}); err != nil {
				return false
			}
		}
		if err := rt.Close(); err != nil {
			return false
		}
		return len(h.bad) == 0 && rt.Stats().Executed == uint64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func spin(iters int) {
	x := 1
	for i := 0; i < iters; i++ {
		x = x*31 + i
	}
	_ = x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
