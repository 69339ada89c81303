package starss

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for Scope: session-scoped key namespacing and per-scope stats on a
// shared runtime — the multi-master isolation contract the service layer
// builds on.

// TestScopeIsolationIdenticalKeys pins the core multi-tenant invariant:
// two scopes submitting writers on the *same* user key must never order
// against each other. Scope A's writer is gated on a channel; if scope B's
// writer on the identical key were queued behind it, B could not complete
// until the gate opens and the test would time out.
func TestScopeIsolationIdenticalKeys(t *testing.T) {
	rt := New(Config{Workers: 2, Window: 16})
	defer rt.Close()
	a := rt.Scope("tenant-a")
	b := rt.Scope("tenant-b")

	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // a test failure must not wedge the deferred Close
	ha, err := a.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrMatrix)},
		Do: func(ctx context.Context) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrMatrix)},
		Do:   func(context.Context) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hb.Wait(ctx); err != nil {
		t.Fatalf("scope B's writer did not complete while scope A held the same user key: %v", err)
	}
	select {
	case <-ha.Done():
		t.Fatal("scope A's gated writer completed early")
	default:
	}
	openGate()
	if err := ha.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Executed != 1 || st.Submitted != 1 {
		t.Errorf("scope A stats = %s, want 1 submitted / 1 executed", st)
	}
	if st := b.Stats(); st.Executed != 1 || st.Submitted != 1 {
		t.Errorf("scope B stats = %s, want 1 submitted / 1 executed", st)
	}
}

// TestScopeOrderingWithinScope proves namespacing does not weaken the
// intra-scope StarSs contract: two writers on one key inside one scope
// still serialize.
func TestScopeOrderingWithinScope(t *testing.T) {
	rt := New(Config{Workers: 4, Window: 16})
	defer rt.Close()
	s := rt.Scope("tenant")

	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	first, err := s.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrK)},
		Do: func(ctx context.Context) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrK)},
		Do:   func(context.Context) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The second writer must be a hazard: give the runtime a moment, then
	// check it has not completed before the gate opens.
	select {
	case <-second.Done():
		t.Fatal("second writer in the same scope ran before the first finished")
	case <-time.After(20 * time.Millisecond):
	}
	openGate()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := first.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := second.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestScopeStatsClassification pins the per-scope executed/failed/skipped
// split and that a failure in one scope cannot poison another scope's
// tasks on the same user key. The runtime, the scope and the handles must
// agree on every task, including one whose body returns an error that
// merely looks like a skip: it ran, so it failed.
func TestScopeStatsClassification(t *testing.T) {
	rt := New(Config{Workers: 2, Window: 16})
	defer rt.Close()
	bad := rt.Scope("bad")
	good := rt.Scope("good")

	gate := make(chan struct{}) // holds the segment until the dependent is queued
	hFail, err := bad.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrShared)},
		Do:   func(context.Context) error { <-gate; return errBoom },
	})
	if err != nil {
		close(gate)
		t.Fatal(err)
	}
	hSkip, err := bad.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrShared)},
		Do:   func(context.Context) error { return nil },
	})
	close(gate)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hFail.Wait(ctx); !errors.Is(err, errBoom) {
		t.Fatalf("failed task err = %v", err)
	}
	if err := hSkip.Wait(ctx); !errors.Is(err, ErrDependencyFailed) {
		t.Fatalf("dependent err = %v, want ErrDependencyFailed", err)
	}

	// The other scope's task on the same user key is untouched by the
	// poisoned segment — it lives in a different namespace.
	hOK, err := good.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrShared)},
		Do:   func(context.Context) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := hOK.Wait(ctx); err != nil {
		t.Fatalf("clean scope's task poisoned across scopes: %v", err)
	}

	// A body that relays a dependency failure it met elsewhere.
	relayGate := make(chan struct{}) // holds the segment until the dependent is queued
	hWrap, err := bad.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrRelay)},
		Do: func(context.Context) error {
			<-relayGate
			return fmt.Errorf("upstream: %w", ErrDependencyFailed)
		},
	})
	if err != nil {
		close(relayGate)
		t.Fatal(err)
	}
	hWrapDep, err := bad.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrRelay)},
		Do:   func(context.Context) error { return nil },
	})
	close(relayGate)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{hWrap, hWrapDep} {
		if err := h.Wait(ctx); !errors.Is(err, ErrDependencyFailed) {
			t.Fatalf("%s err = %v", h.Name(), err)
		}
	}
	for _, c := range []struct {
		h    *Handle
		want Outcome
	}{{hFail, Failed}, {hSkip, Skipped}, {hOK, Executed}, {hWrap, Failed}, {hWrapDep, Skipped}} {
		if got := c.h.Outcome(); got != c.want {
			t.Errorf("%s outcome = %d, want %d", c.h.Name(), got, c.want)
		}
	}

	if st := bad.Stats(); st.Failed != 2 || st.Skipped != 2 || st.Executed != 0 {
		t.Errorf("bad scope stats = %s, want failed=2 skipped=2", st)
	}
	if st := good.Stats(); st.Executed != 1 || st.Failed != 0 || st.Skipped != 0 {
		t.Errorf("good scope stats = %s, want executed=1", st)
	}
	if st := rt.Stats(); st.Failed != 2 || st.Skipped != 2 || st.Executed != 1 {
		t.Errorf("runtime stats = %s, want executed=1 failed=2 skipped=2", st)
	}
}

// TestScopeSubmitAllAndOnDone covers batch admission through a scope and
// the completion hook the service layer keeps its idle clock with.
func TestScopeSubmitAllAndOnDone(t *testing.T) {
	rt := New(Config{Workers: 4, Window: 64})
	defer rt.Close()
	s := rt.Scope("tenant")
	doneCh := make(chan error, 32)
	s.SetOnDone(func(err error) { doneCh <- err })

	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = Task{
			Deps: []Dep{InOut(uint64(i % 4))},
			Do:   func(context.Context) error { return nil },
		}
	}
	handles, err := s.SubmitAll(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != len(tasks) {
		t.Fatalf("admitted %d of %d", len(handles), len(tasks))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(tasks); i++ {
		select {
		case err := <-doneCh:
			if err != nil {
				t.Errorf("onDone got %v", err)
			}
		case <-ctx.Done():
			t.Fatalf("onDone fired %d of %d times", i, len(tasks))
		}
	}
	if st := s.Stats(); st.Submitted != 20 || st.Executed != 20 {
		t.Errorf("scope stats = %s, want 20/20", st)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("scope in-flight after drain = %d", got)
	}
}

// TestScopeWaitOn checks that a scope's WaitOn namespaces its keys: it
// returns once the scope's own accesses drain, regardless of another
// scope holding the same user key.
func TestScopeWaitOn(t *testing.T) {
	rt := New(Config{Workers: 2, Window: 16})
	defer rt.Close()
	a := rt.Scope("a")
	b := rt.Scope("b")

	gate := make(chan struct{})
	defer close(gate)
	if _, err := a.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrK)},
		Do: func(ctx context.Context) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	h, err := b.Submit(context.Background(), Task{
		Deps: []Dep{InOut(addrK)},
		Do:   func(context.Context) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// Scope B's key space is quiet even though scope A still holds addrK.
	if err := b.WaitOn(ctx, addrK); err != nil {
		t.Fatalf("scoped WaitOn blocked on another scope's segment: %v", err)
	}
}

// TestScopeSameNameIsolated pins that a scope's name is a label, not its
// identity: two Scope calls with one name are two namespaces. On both
// runtimes and for both key kinds, a writer held in the first must not hold
// up the second's writer on the same key, the second's WaitOn must not see
// the first's segment, and several goroutines making same-named scopes at
// once must each get a namespace of their own.
func TestScopeSameNameIsolated(t *testing.T) {
	for name, rt := range newRuntimes(Config{Workers: 2, Window: 64}) {
		t.Run(name, func(t *testing.T) {
			defer mustClose(t, rt)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			first, second := rt.Scope("x"), rt.BoundedScope("x", 8)
			if first.Name() != "x" || second.Name() != "x" {
				t.Fatalf("names %q and %q, want x twice", first.Name(), second.Name())
			}
			gate := make(chan struct{})
			deps := []Dep{InOut(0x40), InOut(addrMatrix)}
			held, err := first.Submit(ctx, Task{Deps: deps, Do: func(context.Context) error { <-gate; return nil }})
			if err != nil {
				t.Fatal(err)
			}
			free, err := second.Submit(ctx, Task{Deps: deps, Do: func(context.Context) error { return nil }})
			if err != nil {
				t.Fatal(err)
			}
			if err := free.Wait(ctx); err != nil {
				t.Fatalf("the second scope named x waited for the first one's writer: %v", err)
			}
			if err := second.WaitOn(ctx, 0x40, addrMatrix); err != nil {
				t.Fatalf("the second scope's WaitOn saw the first one's segments: %v", err)
			}
			if held.finished() {
				t.Fatal("the gated writer finished early")
			}
			close(gate)
			if err := held.Wait(ctx); err != nil {
				t.Fatal(err)
			}

			// Concurrent tenants, one label: every writer is gated, so any two
			// scopes sharing a namespace would show as a hazard.
			const tenants = 8
			gate = make(chan struct{})
			before := rt.Stats().Hazards
			var wg sync.WaitGroup
			handles := make([]*Handle, tenants)
			for i := range handles {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, err := rt.Scope("tenant").Submit(ctx, Task{
						Deps: []Dep{InOut(7), InOut(addrK)},
						Do:   func(context.Context) error { <-gate; return nil },
					})
					if err != nil {
						t.Error(err)
					}
					handles[i] = h
				}()
			}
			wg.Wait()
			fenceMaestro(t, rt)
			if got := rt.Stats().Hazards - before; got != 0 {
				t.Errorf("%d of %d same-named scopes queued behind another", got, tenants)
			}
			close(gate)
			for _, h := range handles {
				if h != nil {
					if err := h.Wait(ctx); err != nil {
						t.Error(err)
					}
				}
			}
		})
	}
}

// TestScopeSubmitAllocations pins what a namespace costs: nothing. A scoped
// task's keys are not rewritten, boxed or copied, and neither is its batch —
// the node carries the scope — so in steady state a 64-task TrySubmitAll or
// Scope.SubmitAll of two-address tasks costs what Runtime.SubmitAll's one
// admission chunk does, a handle block and the handle slice (its node block
// comes back off the free list), nothing per task; and Scope.Submit costs
// exactly what Runtime.Submit does, its node and its handle.
func TestScopeSubmitAllocations(t *testing.T) {
	ctx := context.Background()
	nop := func(context.Context) error { return nil }
	await := func(h *Handle) {
		for !h.finished() { // spinning: Wait would make the done channel
			runtime.Gosched()
		}
	}
	rt := New(Config{Workers: 1, Window: 128})
	defer mustClose(t, rt)
	s := rt.Scope("tenant")

	const n = 64
	tasks := make([]Task, n)
	for i := range tasks {
		// A ring: each task writes its own address and reads its neighbour's.
		tasks[i] = Task{Do: nop, Deps: []Dep{
			Out(0x1000 + uint64(i)*64),
			In(0x1000 + uint64((i+n-1)%n)*64),
		}}
	}
	perBatch := map[string]float64{}
	for name, submitAll := range map[string]func(context.Context, []Task) ([]*Handle, error){
		"Runtime.SubmitAll":  rt.SubmitAll,
		"Scope.SubmitAll":    s.SubmitAll,
		"Scope.TrySubmitAll": s.TrySubmitAll,
	} {
		batch := func() {
			handles, err := submitAll(ctx, tasks)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range handles {
				await(h)
			}
		}
		for i := 0; i < 50; i++ {
			batch() // warm-up: map buckets, free lists
		}
		perBatch[name] = testing.AllocsPerRun(200, batch)
		t.Logf("%s of %d tasks: %.1f allocations", name, n, perBatch[name])
	}
	if want := perBatch["Runtime.SubmitAll"]; want > 2 || perBatch["Scope.SubmitAll"] != want || perBatch["Scope.TrySubmitAll"] != want {
		t.Errorf("a %d-task chunk costs %v allocations, want at most 2, and the same through a scope", n, perBatch)
	}

	one := Task{Do: nop, Deps: []Dep{InOut(0x40), In(addrK)}}
	var perSubmit [2]float64
	for i, sub := range []submitter{rt, s} {
		single := func() {
			h, err := sub.Submit(ctx, one)
			if err != nil {
				t.Fatal(err)
			}
			await(h)
		}
		for j := 0; j < 50; j++ {
			single()
		}
		perSubmit[i] = testing.AllocsPerRun(500, single)
	}
	t.Logf("Submit: %.2f allocations on the runtime, %.2f through the scope", perSubmit[0], perSubmit[1])
	if perSubmit[0] != 2 || perSubmit[1] != perSubmit[0] {
		t.Errorf("Submit costs %.2f allocations on the runtime and %.2f through a scope, want 2 and 2", perSubmit[0], perSubmit[1])
	}
}

// TestScopeAccountingSettledBeforeHandle pins the ordering scope and session
// accounting rely on: once Wait returns, everything the onDone hook did is
// already visible.
func TestScopeAccountingSettledBeforeHandle(t *testing.T) {
	rt := New(Config{Workers: 2, Window: 16})
	s := rt.Scope("tenant")
	var avail int64 // what a session's token count would be; plain on purpose: -race checks the ordering
	s.SetOnDone(func(error) { avail++ })
	ctx := context.Background()
	var failed uint64
	for i := 0; i < 1000; i++ {
		task := Task{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { return nil }}
		if i%10 == 9 {
			task.Do = func(context.Context) error { return errBoom }
			failed++
		}
		h, err := s.Submit(ctx, task)
		if err != nil {
			t.Fatal(err)
		}
		_ = h.Wait(ctx) // the outcome is checked through the counters below
		// No polling: the counters are final the moment Wait returns.
		st := s.Stats()
		if got := st.Executed + st.Failed + st.Skipped; got != uint64(i+1) || st.Failed != failed || st.Skipped != 0 {
			t.Fatalf("task %d: scope stats %s lag the completed handle", i, st)
		}
		if n := s.InFlight(); n != 0 {
			t.Fatalf("task %d: scope in-flight = %d after Wait returned", i, n)
		}
		if avail != int64(i+1) {
			t.Fatalf("task %d: hook ran %d times before Wait returned, want %d", i, avail, i+1)
		}
	}
	if err := rt.Close(); !errors.Is(err, errBoom) {
		t.Fatalf("Close = %v, want the injected failure", err)
	}
}

// gatedTasks returns n independent tasks on addresses first, first+1, …
// whose bodies wait for gate.
func gatedTasks(n int, first uint64, gate <-chan struct{}) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{
			Deps: []Dep{InOut(first + uint64(i))},
			Do:   func(context.Context) error { <-gate; return nil },
		}
	}
	return tasks
}

// TestScopeTrySubmitAllRefusals: the non-blocking admission takes a batch
// whole or not at all, names the window that refused it, and a refusal —
// by the scope's window, by the runtime's, or by the shut window of a closed
// runtime — leaves no token behind in either.
func TestScopeTrySubmitAllRefusals(t *testing.T) {
	rt := New(Config{Workers: 2, Window: 8})
	small := rt.BoundedScope("small", 4)
	whole := rt.BoundedScope("whole", 8) // its share is the whole window
	ctx := context.Background()
	gate := make(chan struct{})
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate()
	held := func(wantSmall, wantWhole int64) {
		t.Helper()
		if a, b, all := small.InFlight(), whole.InFlight(), rt.InFlight(); a != wantSmall || b != wantWhole || int64(all) != a+b {
			t.Fatalf("in flight: small %d whole %d runtime %d, want %d, %d and their sum", a, b, all, wantSmall, wantWhole)
		}
	}

	hs, err := small.TrySubmitAll(ctx, gatedTasks(3, 0, gate))
	if err != nil || len(hs) != 3 {
		t.Fatalf("3 into an empty scope of 4 = (%d handles, %v)", len(hs), err)
	}
	// One scope token left: a batch of two is refused whole.
	if hs, err := small.TrySubmitAll(ctx, gatedTasks(2, 10, gate)); !errors.Is(err, ErrScopeFull) || hs != nil {
		t.Fatalf("2 into a scope with 1 free = (%v, %v), want ErrScopeFull", hs, err)
	}
	held(3, 0)
	// Five runtime tokens left: six do not fit, whatever the scope allows.
	if hs, err := whole.TrySubmitAll(ctx, gatedTasks(6, 20, gate)); !errors.Is(err, ErrWindowFull) || hs != nil {
		t.Fatalf("6 into a runtime with 5 free = (%v, %v), want ErrWindowFull", hs, err)
	}
	held(3, 0)
	if _, err := whole.TrySubmitAll(ctx, gatedTasks(5, 30, gate)); err != nil {
		t.Fatal(err)
	}
	held(3, 5)
	// Both windows that matter to small are full now; the shared one speaks.
	if _, err := small.TrySubmitAll(ctx, gatedTasks(1, 40, gate)); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("1 into a full runtime = %v, want ErrWindowFull", err)
	}
	// A validation error is reported before any token moves.
	if _, err := small.TrySubmitAll(ctx, []Task{{Deps: []Dep{Out(50)}}}); err == nil {
		t.Fatal("a task without Do was admitted")
	}
	held(3, 5)

	openGate()
	if err := rt.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	held(0, 0)
	for _, s := range []*Scope{small, whole} {
		st := s.Stats()
		if st.Submitted != st.Executed+st.Failed+st.Skipped || int64(st.MaxInFlight) > s.win.limit {
			t.Errorf("scope %s after drain: %s (limit %d)", s.Name(), st, s.win.limit)
		}
	}
	if st := small.Stats(); st.Submitted != 3 || st.MaxInFlight > 4 {
		t.Errorf("small scope = %s, want 3 submitted", st)
	}

	mustClose(t, rt)
	if _, err := small.TrySubmitAll(ctx, gatedTasks(1, 60, gate)); !errors.Is(err, ErrStopped) {
		t.Fatalf("TrySubmitAll after Close = %v, want ErrStopped", err)
	}
	held(0, 0)
}

// TestScopeLeavesCallerBatch: a batch submitted through a scope is the
// caller's again, untouched, once the call returns — submitting it again on
// the runtime files it in the runtime's namespace and leaves the scope's
// window and counters alone.
func TestScopeLeavesCallerBatch(t *testing.T) {
	ctx := context.Background()
	for name, via := range map[string]func(*Scope, []Task) ([]*Handle, error){
		"SubmitAll":    func(s *Scope, b []Task) ([]*Handle, error) { return s.SubmitAll(ctx, b) },
		"TrySubmitAll": func(s *Scope, b []Task) ([]*Handle, error) { return s.TrySubmitAll(ctx, b) },
	} {
		t.Run(name, func(t *testing.T) {
			rt := New(Config{Workers: 2, Window: 16})
			s := rt.Scope("tenant")
			b := []Task{{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { return nil }}}
			if _, err := via(s, b); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.SubmitAll(ctx, b); err != nil {
				t.Fatal(err)
			}
			if err := rt.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			if st, n := s.Stats(), s.InFlight(); st.Submitted != 1 || st.Executed != 1 || n != 0 {
				t.Errorf("scope: %s, in flight %d; want submitted=1 executed=1, in flight 0", st, n)
			}
			if st := rt.Stats(); st.Executed != 2 {
				t.Errorf("runtime: %s, want executed=2", st)
			}
			mustClose(t, rt)
		})
	}
}

// TestScopeTrySubmitAllNilContext: TrySubmitAll, like every other admission,
// takes a nil ctx for context.Background().
func TestScopeTrySubmitAllNilContext(t *testing.T) {
	rt := New(Config{Workers: 1, Window: 4})
	s := rt.Scope("tenant")
	var noCtx context.Context
	hs, err := s.TrySubmitAll(noCtx, []Task{{Deps: []Dep{InOut(addrK)}, Do: func(context.Context) error { return nil }}})
	if err != nil || len(hs) != 1 {
		t.Fatalf("TrySubmitAll(nil ctx) = (%d handles, %v)", len(hs), err)
	}
	if err := hs[0].Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	mustClose(t, rt)
}

// TestScopeWindowBoundsConcurrentSubmitters races eight submitters, half
// blocking and half refusing, on one bounded scope: the scope's in-flight
// count never passes its limit, and every token and count settles.
func TestScopeWindowBoundsConcurrentSubmitters(t *testing.T) {
	const limit = 3
	rt := New(Config{Workers: 2, Window: 64})
	defer rt.Close()
	s := rt.BoundedScope("tenant", limit)
	var over atomic.Int64
	body := func(context.Context) error {
		if n := s.InFlight(); n > limit {
			over.Store(n)
		}
		return nil
	}
	ctx := context.Background()
	var admitted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				batch := make([]Task, 1+(g+i)%limit)
				for j := range batch {
					batch[j] = Task{Deps: []Dep{InOut(uint64(g)<<32 | uint64(i)<<16 | uint64(j))}, Do: body}
				}
				var hs []*Handle
				var err error
				if g%2 == 0 {
					hs, err = s.SubmitAll(ctx, batch)
				} else if hs, err = s.TrySubmitAll(ctx, batch); errors.Is(err, ErrScopeFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				admitted.Add(uint64(len(hs)))
			}
		}(g)
	}
	wg.Wait()
	if err := rt.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MaxInFlight > limit || over.Load() != 0 {
		t.Errorf("scope of %d reached %d in flight (a body saw %d)", limit, st.MaxInFlight, over.Load())
	}
	if st.Submitted != admitted.Load() || st.Executed != st.Submitted || s.InFlight() != 0 {
		t.Errorf("after drain: %s, in flight %d, want %d submitted and executed", st, s.InFlight(), admitted.Load())
	}
}
