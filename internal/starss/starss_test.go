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
	if In(7) != (Dep{7, ModeIn}) || Out(7) != (Dep{7, ModeOut}) || InOut(7) != (Dep{7, ModeInOut}) {
		t.Error("constructors wrong")
	}
}

func TestNormalizeDeps(t *testing.T) {
	deps := normalizeDeps([]Dep{In(addrA), Out(addrA), In(addrB), In(addrB)})
	if len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	if deps[0].Addr != addrA || deps[0].Mode != ModeInOut {
		t.Errorf("merged dep = %v, want a/inout", deps[0])
	}
	if deps[1].Addr != addrB || deps[1].Mode != ModeIn {
		t.Errorf("dep b = %v", deps[1])
	}
}

// TestKeyIdentity pins which dependencies name the same data: the table key
// is {namespace, address}, so one address in two namespaces is two keys. The
// "one bank" run puts every key in the same table, where nothing but the key
// compare keeps them apart.
func TestKeyIdentity(t *testing.T) {
	ctx := context.Background()
	nop := func(context.Context) error { return nil }
	runtimes := newRuntimes(Config{Workers: 4, Window: 16})
	runtimes["one bank"] = newRuntime(Config{Workers: 4, Window: 16}, 1, nil)
	for name, rt := range runtimes {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			scopeA, scopeB := rt.Scope("a"), rt.Scope("b")
			submit := func(s submitter, task Task) *Handle {
				t.Helper()
				h, err := s.Submit(ctx, task)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			// waits reports whether a task on d2 is held up by a running
			// task on d1: Check Deps counts it as a hazard or it does not.
			waits := func(s1 submitter, d1 Dep, s2 submitter, d2 Dep) bool {
				t.Helper()
				gate := make(chan struct{})
				before := rt.Stats().Hazards
				first := submit(s1, Task{Deps: []Dep{d1}, Do: func(context.Context) error { <-gate; return nil }})
				second := submit(s2, Task{Deps: []Dep{d2}, Do: nop})
				fenceMaestro(t, rt)
				waited := rt.Stats().Hazards - before
				close(gate)
				for _, h := range []*Handle{first, second} {
					if err := h.Wait(ctx); err != nil {
						t.Fatal(err)
					}
				}
				// A finished task gives its keys up after its handle reports
				// done: the next pair must not queue behind this one.
				waitInFlight(t, rt, 0)
				return waited == 1
			}
			for _, tc := range []struct {
				name   string
				s1     submitter
				d1     Dep
				s2     submitter
				d2     Dep
				serial bool
			}{
				{"one address", rt, Out(7), rt, In(7), true},
				{"two addresses", rt, InOut(7), rt, InOut(8), false},
				{"address 0", rt, InOut(0), rt, Dep{}, true},
				{"unscoped and scope A", rt, InOut(7), scopeA, InOut(7), false},
				{"scope A and scope B", scopeA, InOut(7), scopeB, InOut(7), false},
				{"scope B and unscoped", scopeB, InOut(7), rt, InOut(7), false},
				{"scope A and scope A", scopeA, InOut(7), scopeA, In(7), true},
			} {
				if got := waits(tc.s1, tc.d1, tc.s2, tc.d2); got != tc.serial {
					t.Errorf("%s: second task waited = %v, want %v", tc.name, got, tc.serial)
				}
			}

			if len(rt.banks) == 1 {
				// Addresses 0 and 7 in three namespaces, held at once, are six
				// segments of the one table.
				gate := make(chan struct{})
				var held []*Handle
				for _, s := range []submitter{rt, scopeA, scopeB} {
					held = append(held, submit(s, Task{
						Deps: []Dep{InOut(0), InOut(7)},
						Do:   func(context.Context) error { <-gate; return nil },
					}))
				}
				fenceMaestro(t, rt)
				// The fence's key, and the earlier tasks', may still be filed
				// retired: only keys with a holder count.
				if live := liveKeys(rt, 0); live != 6 {
					t.Errorf("the one bank holds %d keys for addresses 0 and 7 in three namespaces, want 6", live)
				}
				close(gate)
				for _, h := range held {
					if err := h.Wait(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}

			// WaitOn sees its own namespace's address 7 and nobody else's:
			// with one task on it held in each of two namespaces, the one
			// whose task has finished returns and the other times out.
			type waiter interface {
				submitter
				WaitOn(ctx context.Context, addrs ...uint64) error
			}
			for _, pair := range [][2]waiter{{rt, scopeA}, {scopeA, rt}, {scopeA, scopeB}} {
				done, held := pair[0], pair[1]
				gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
				var handles [2]*Handle
				for i, w := range pair {
					gate := gates[i]
					handles[i] = submit(w, Task{
						Deps: []Dep{InOut(7)},
						Do:   func(context.Context) error { <-gate; return nil },
					})
				}
				close(gates[0])
				if err := done.WaitOn(ctx, 7); err != nil {
					t.Fatal(err)
				}
				if !handles[0].finished() {
					t.Error("WaitOn returned before its own namespace's task finished")
				}
				short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
				if err := held.WaitOn(short, 7); err != context.DeadlineExceeded {
					t.Errorf("WaitOn = %v while its namespace's task is held, want a timeout", err)
				}
				cancel()
				close(gates[1])
				if err := held.WaitOn(ctx, 7); err != nil {
					t.Fatal(err)
				}
				if !handles[1].finished() {
					t.Error("WaitOn returned before its own namespace's task finished")
				}
			}
		})
	}
}

func TestBasicExecution(t *testing.T) {
	rt := New(Config{Workers: 4})
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		rt.MustSubmit(Task{
			Deps: []Dep{InOut(uint64(i))},
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
			Deps: []Dep{InOut(addrChain)},
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
			Deps: []Dep{Out(uint64(i))},
			Do:   do(func() { data[i] = i * i }),
		})
	}
	sum := 0
	deps := make([]Dep, 10)
	for i := range deps {
		deps[i] = In(uint64(i))
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
			Deps: []Dep{InOut(uint64(i % 7))},
			Do:   do(func() { done.Add(1) }),
		})
	}
	rt.Wait(context.Background())
	if done.Load() != 64 {
		t.Fatalf("barrier returned with %d of 64 done", done.Load())
	}
	// The runtime stays usable after a barrier.
	rt.MustSubmit(Task{Deps: []Dep{In(addrX)}, Do: do(func() { done.Add(1) })})
	rt.Wait(context.Background())
	if done.Load() != 65 {
		t.Fatal("submission after barrier did not run")
	}
}

// hazardChecker verifies reader/writer exclusion at execution time: readers
// of a key may overlap each other but never a writer; writers are exclusive.
// Keys are told apart as the Dependence Table tells them apart: by table key,
// so one address in two namespaces is two.
type hazardChecker struct {
	mu      sync.Mutex
	readers map[tableKey]int
	writers map[tableKey]int
	bad     []string
}

func newHazardChecker() *hazardChecker {
	return &hazardChecker{readers: map[tableKey]int{}, writers: map[tableKey]int{}}
}

func (h *hazardChecker) enter(ns uint64, deps []Dep) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range deps {
		k := tableKey{ns, d.Addr}
		if d.Mode == ModeIn {
			if h.writers[k] > 0 {
				h.bad = append(h.bad, "reader overlaps writer")
			}
			h.readers[k]++
		} else {
			if h.writers[k] > 0 || h.readers[k] > 0 {
				h.bad = append(h.bad, "writer overlaps access")
			}
			h.writers[k]++
		}
	}
}

func (h *hazardChecker) exit(ns uint64, deps []Dep) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range deps {
		k := tableKey{ns, d.Addr}
		if d.Mode == ModeIn {
			h.readers[k]--
		} else {
			h.writers[k]--
		}
	}
}

// submitter is what a Runtime and a Scope have in common.
type submitter interface {
	Submit(ctx context.Context, t Task) (*Handle, error)
}

// namespaces returns the runtime and two scopes on it — with their
// namespaces, for the hazard checker — so a property test can spread one
// small key space over three tables' worth of keys.
func namespaces(rt *Runtime) ([]submitter, []uint64) {
	a, b := rt.Scope("a"), rt.Scope("b")
	return []submitter{rt, a, b}, []uint64{0, a.ns, b.ns}
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
			deps = append(deps, Dep{uint64(key), Mode(rng.Intn(3))})
		}
		if len(deps) == 0 {
			deps = []Dep{In(99)}
		}
		norm := normalizeDeps(deps)
		rt.MustSubmit(Task{
			Deps: deps,
			Do: do(func() {
				h.enter(0, norm)
				defer h.exit(0, norm)
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

func TestWindowBackPressure(t *testing.T) {
	rt := New(Config{Workers: 1, Window: 4})
	block := make(chan struct{})
	rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: do(func() { <-block })})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			rt.MustSubmit(Task{Deps: []Dep{InOut(addrK)}, Do: do(func() {})})
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

// Property: random task graphs over a small address space — in the
// runtime's namespace and in two scopes' — always execute all tasks without
// hazard violations, for any worker count and bank count. A task may name
// one address twice; normalizeDeps has to merge those.
func TestRandomGraphsProperty(t *testing.T) {
	prop := func(seed uint64, wRaw, sRaw uint8) bool {
		rng := sim.NewRand(seed)
		banks := []int{0, 1, 2, 4}[sRaw%4] // 0 derives the count from Workers
		rt := newRuntime(Config{Workers: int(wRaw%4) + 1, Window: 64}, banks, nil)
		h := newHazardChecker()
		subs, nss := namespaces(rt)
		n := 120
		for i := 0; i < n; i++ {
			var deps []Dep
			for k := 0; k <= rng.Intn(3); k++ {
				deps = append(deps, Dep{uint64(rng.Intn(4)), Mode(rng.Intn(3))})
			}
			norm := normalizeDeps(deps)
			who := rng.Intn(len(subs))
			if _, err := subs[who].Submit(context.Background(), Task{
				Deps: deps,
				Do: do(func() {
					h.enter(nss[who], norm)
					defer h.exit(nss[who], norm)
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
