package chaos

// The seven scenarios. The first three drive the runtime directly and
// verify exact, oracle-predicted outcomes (fault decisions are pure
// functions of seed and task index, so expected failed/retried sets are
// computable without running anything). The last four drive the full HTTP
// service and verify the end-to-end guarantees: exactly-once submission
// under duplicated requests and lost responses, typed errors (not wedges)
// for sessions expiring mid-graph, and explicit 503 shedding under
// overload.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/service"
	"nexuspp/internal/starss"
	"nexuspp/internal/workload"
)

// runTaskPanic injects body panics into an irregular random DAG with
// admission gated ahead of execution, and verifies the skipped set matches
// the dependency-graph oracle exactly: a task is skipped iff a transitive
// predecessor failed, failed iff decide picked it under the seed (and nothing
// upstream failed first), executed otherwise.
func runTaskPanic(ctx context.Context, seed uint64) (*Report, error) {
	const n = 200
	src := workload.RandomDAG(workload.RandomDAGConfig{Tasks: n, Seed: seed})
	g := depgraph.Build(src)
	panics := func(i uint64) bool { return decide(seed, siteTaskPanic, taskKey(i, 0), 0.05) }

	// Oracle pass in ID order (a topological order): skipped dominates a
	// task's own injected panic, because the runtime classifies poison
	// before running the body.
	const (
		wantExec = iota
		wantFail
		wantSkip
	)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		for _, p := range g.Preds(i) {
			if want[p] != wantExec {
				want[i] = wantSkip
				break
			}
		}
		if want[i] == wantExec && panics(uint64(i)) {
			want[i] = wantFail
		}
	}

	rt := starss.New(starss.Config{Workers: 4, Window: n + 1})
	tr := workload.Collect(src)
	gate := make(chan struct{})
	var fired atomic.Uint64
	handles := make([]*starss.Handle, n)
	for i := range tr.Tasks {
		t := starss.TaskFromSpec(tr.Tasks[i], starss.ReplayOptions{ZeroCost: true})
		idx := uint64(i)
		t.Do = func(ctx context.Context) error {
			<-gate
			if panics(idx) {
				fired.Add(1)
				panic(fmt.Sprintf("chaos: injected panic in task %d", idx))
			}
			return ctx.Err()
		}
		h, err := rt.Submit(ctx, t)
		if err != nil {
			close(gate)
			_ = rt.Close()
			return nil, fmt.Errorf("submit task %d: %w", i, err)
		}
		handles[i] = h
	}
	close(gate)
	_ = rt.Wait(ctx) // first injected panic, expected
	for i, h := range handles {
		err := h.Err()
		got := wantExec
		switch {
		case errors.Is(err, starss.ErrDependencyFailed):
			got = wantSkip
		case err != nil:
			got = wantFail
		}
		if got != want[i] {
			_ = rt.Close()
			return nil, fmt.Errorf("task %d: outcome %d, oracle wants %d (err=%v)", i, got, want[i], err)
		}
	}
	st := rt.Stats()
	_ = rt.Close()
	if st.Executed+st.Failed+st.Skipped != st.Submitted || st.Submitted != n {
		return nil, fmt.Errorf("counters unbalanced: %+v", st)
	}
	return &Report{
		Tasks: n, Executed: st.Executed, Failed: st.Failed, Skipped: st.Skipped,
		Faults:      injected("task_panic", fired.Load()),
		Fingerprint: fingerprint("task_panic", seed, st.Executed, st.Failed, st.Skipped, faultLine("task_panic", fired.Load())),
	}, nil
}

// runTaskHangDeadline injects hung bodies into independent tasks, each body
// wrapped in a starss.Deadline, and verifies every hung task fails with
// ErrTaskTimeout — the deadline, not a wedge, ends the hang — while the
// rest execute.
func runTaskHangDeadline(ctx context.Context, seed uint64) (*Report, error) {
	const n = 64
	hangs := func(i uint64) bool { return decide(seed, siteTaskHang, taskKey(i, 0), 0.2) }
	var wantFailed uint64
	for i := 0; i < n; i++ {
		if hangs(uint64(i)) {
			wantFailed++
		}
	}
	rt := starss.New(starss.Config{Workers: 8, Window: n + 1})
	var fired atomic.Uint64
	handles := make([]*starss.Handle, n)
	for i := 0; i < n; i++ {
		idx := uint64(i)
		hang := func(ctx context.Context) error {
			if hangs(idx) {
				fired.Add(1)
				<-ctx.Done() // only the deadline ends a hang
			}
			return ctx.Err()
		}
		h, err := rt.Submit(ctx, starss.Task{
			Name: fmt.Sprintf("hang%d", i),
			Deps: []starss.Dep{starss.Out(uint64(i))},
			Do:   starss.Deadline(hang, 30*time.Millisecond),
		})
		if err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("submit task %d: %w", i, err)
		}
		handles[i] = h
	}
	_ = rt.Wait(ctx)
	for i, h := range handles {
		err := h.Err()
		if hangs(uint64(i)) {
			if !errors.Is(err, starss.ErrTaskTimeout) {
				_ = rt.Close()
				return nil, fmt.Errorf("hung task %d: err=%v, want ErrTaskTimeout", i, err)
			}
		} else if err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("clean task %d failed: %v", i, err)
		}
	}
	st := rt.Stats()
	_ = rt.Close()
	if st.Failed != wantFailed || st.Executed != n-wantFailed || st.Skipped != 0 {
		return nil, fmt.Errorf("outcomes executed=%d failed=%d skipped=%d, want %d/%d/0",
			st.Executed, st.Failed, st.Skipped, n-wantFailed, wantFailed)
	}
	return &Report{
		Tasks: n, Executed: st.Executed, Failed: st.Failed,
		Faults:      injected("task_hang", fired.Load()),
		Fingerprint: fingerprint("task_hang_deadline", seed, st.Executed, st.Failed, faultLine("task_hang", fired.Load())),
	}, nil
}

// runRetryRecovers injects body errors at 50% per attempt into independent
// tasks whose bodies starss.Retry re-arms up to 4 times, and verifies the
// retry recovers exactly the tasks the seeded schedule says it should:
// expected failures and expected re-arms are both computed from decide.
func runRetryRecovers(ctx context.Context, seed uint64) (*Report, error) {
	const (
		n       = 64
		retries = 4
	)
	fails := func(i uint64, attempt int) bool { return decide(seed, siteTaskError, taskKey(i, attempt), 0.5) }
	var wantFailed, wantRetried uint64
	for i := 0; i < n; i++ {
		a := 0
		for a <= retries && fails(uint64(i), a) {
			a++
		}
		if a > retries {
			wantFailed++
			wantRetried += retries // every attempt but the last re-arms
		} else {
			wantRetried += uint64(a)
		}
	}
	rt := starss.New(starss.Config{Workers: 8, Window: n + 1})
	var retried, fired atomic.Uint64
	handles := make([]*starss.Handle, n)
	for i := 0; i < n; i++ {
		idx, attempts := uint64(i), 0 // Retry makes one call at a time
		flaky := func(ctx context.Context) error {
			a := attempts
			attempts++
			if fails(idx, a) {
				fired.Add(1)
				return fmt.Errorf("%w: task %d attempt %d", errInjected, idx, a)
			}
			return ctx.Err()
		}
		h, err := rt.Submit(ctx, starss.Task{
			Name: fmt.Sprintf("retry%d", i),
			Deps: []starss.Dep{starss.Out(uint64(i))},
			Do:   starss.Retry(flaky, retries, &retried),
		})
		if err != nil {
			_ = rt.Close()
			return nil, fmt.Errorf("submit task %d: %w", i, err)
		}
		handles[i] = h
	}
	_ = rt.Wait(ctx)
	for i, h := range handles {
		if err := h.Err(); err != nil && !errors.Is(err, errInjected) {
			_ = rt.Close()
			return nil, fmt.Errorf("task %d: unexpected error %v", i, err)
		}
	}
	st := rt.Stats()
	_ = rt.Close()
	if st.Failed != wantFailed || retried.Load() != wantRetried || st.Executed != n-wantFailed {
		return nil, fmt.Errorf("executed=%d failed=%d retried=%d, want %d/%d/%d",
			st.Executed, st.Failed, retried.Load(), n-wantFailed, wantFailed, wantRetried)
	}
	return &Report{
		Tasks: n, Executed: st.Executed, Failed: st.Failed, Retried: retried.Load(),
		Faults:      injected("task_error", fired.Load()),
		Fingerprint: fingerprint("retry_recovers", seed, st.Executed, st.Failed, retried.Load(), faultLine("task_error", fired.Load())),
	}, nil
}

// soloSpec returns a one-task wire batch on its own key.
func soloSpec(i int, execUS int64) []service.TaskSpec {
	return []service.TaskSpec{{
		Name:   fmt.Sprintf("t%d", i),
		Params: []service.Param{{Addr: 0x1000 + uint64(i), Mode: "out"}},
		ExecUS: execUS,
	}}
}

// newChaosServer starts an in-process service + HTTP listener.
func newChaosServer(cfg service.Config) (*service.Server, *httptest.Server, *service.Client) {
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	return srv, hs, service.NewClient(hs.URL)
}

// runDupSubmit duplicates every second client request on the wire and
// verifies idempotency keys keep submission exactly-once: the duplicate is
// answered from the dedup window and the server executes each logical batch
// exactly once.
func runDupSubmit(ctx context.Context, seed uint64) (*Report, error) {
	const n = 20
	srv, hs, client := newChaosServer(service.Config{Workers: 4})
	defer func() { _ = srv.Close() }() // infrastructure-only; scenario invariants are checked explicitly
	defer hs.Close()
	sess, err := client.Open(ctx)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	dups := &wire{every: 2}
	clean := client.HTTP
	client.HTTP = &http.Client{Transport: dups}
	deduped := 0
	for i := 0; i < n; i++ {
		_, dup, err := sess.SubmitIdem(ctx, fmt.Sprintf("batch-%d", i), soloSpec(i, 100))
		if err != nil {
			return nil, fmt.Errorf("submit %d: %w", i, err)
		}
		if dup {
			deduped++
		}
	}
	if _, err := sess.Await(ctx, nil); err != nil {
		return nil, fmt.Errorf("await: %w", err)
	}
	stats, err := sess.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if stats.Executed != n || stats.Submitted != n {
		return nil, fmt.Errorf("executed=%d submitted=%d, want exactly %d each (duplicates double-executed?)",
			stats.Executed, stats.Submitted, n)
	}
	// Every duplicated submit lands on the dedup window: seq 0,2,4,... of
	// the sequential request stream, so exactly half the submits dedup.
	if deduped != n/2 {
		return nil, fmt.Errorf("deduped=%d, want %d", deduped, n/2)
	}
	// A duplicated DELETE would 404 against its own duplicate; the scenario
	// targets submits, so close over the clean transport.
	client.HTTP = clean
	if err := sess.Close(ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return &Report{
		Tasks: n, Executed: stats.Executed, Deduped: deduped,
		Faults:      injected("req_dup", dups.fired.Load()),
		Fingerprint: fingerprint("dup_submit", seed, stats.Executed, stats.Submitted, deduped),
	}, nil
}

// runDroppedResponse drops every third response after the server has fully
// processed the request — the classic double-execution trap — and verifies
// SubmitWait's idempotent retry keeps each logical batch exactly-once.
func runDroppedResponse(ctx context.Context, seed uint64) (*Report, error) {
	const n = 12
	srv, hs, client := newChaosServer(service.Config{Workers: 4})
	defer func() { _ = srv.Close() }() // infrastructure-only; scenario invariants are checked explicitly
	defer hs.Close()
	sess, err := client.Open(ctx)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	drops := &wire{every: 3, drop: true}
	clean := client.HTTP
	client.HTTP = &http.Client{Transport: drops}
	sess.RetryBase = time.Millisecond
	sess.RetryMaxBackoff = 5 * time.Millisecond
	totalRetries := 0
	for i := 0; i < n; i++ {
		_, retries, err := sess.SubmitWait(ctx, soloSpec(i, 100))
		if err != nil {
			return nil, fmt.Errorf("submit %d: %w", i, err)
		}
		totalRetries += retries
	}
	client.HTTP = clean // the scenario targets submit responses only
	if _, err := sess.Await(ctx, nil); err != nil {
		return nil, fmt.Errorf("await: %w", err)
	}
	stats, err := sess.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if stats.Executed != n || stats.Submitted != n {
		return nil, fmt.Errorf("executed=%d submitted=%d, want exactly %d each (dropped responses double-executed?)",
			stats.Executed, stats.Submitted, n)
	}
	if uint64(totalRetries) != drops.fired.Load() {
		return nil, fmt.Errorf("client retries=%d, want one per dropped response (%d)", totalRetries, drops.fired.Load())
	}
	if totalRetries == 0 {
		return nil, fmt.Errorf("no responses dropped; the scenario exercised nothing")
	}
	if err := sess.Close(ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return &Report{
		Tasks: n, Executed: stats.Executed, ClientRetries: totalRetries,
		Faults:      injected("resp_drop", drops.fired.Load()),
		Fingerprint: fingerprint("dropped_response", seed, stats.Executed, stats.Submitted, totalRetries),
	}, nil
}

// runSessionExpiry expires a session in the middle of a live dependency
// chain and verifies the failure is typed and total: in-flight awaits
// return instead of wedging, post-expiry requests get a stable 404/410, and
// the shared runtime drains every admitted task.
func runSessionExpiry(ctx context.Context, seed uint64) (*Report, error) {
	const depth = 20
	// TTL of 1ns makes any reap pass treat the session as idle, forcing
	// the janitor race deterministically mid-graph.
	srv, hs, client := newChaosServer(service.Config{Workers: 4, SessionTTL: time.Nanosecond})
	defer func() { _ = srv.Close() }() // infrastructure-only; scenario invariants are checked explicitly
	defer hs.Close()
	sess, err := client.Open(ctx)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	// One long chain on a single inout key: only the head can ever run, so
	// expiry always lands mid-graph.
	specs := make([]service.TaskSpec, depth)
	for i := range specs {
		specs[i] = service.TaskSpec{
			Name:   fmt.Sprintf("chain%d", i),
			Params: []service.Param{{Addr: 0x2000, Mode: "inout"}},
			ExecUS: 20_000,
		}
	}
	ids, err := sess.Submit(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	// An await in flight while the session expires must return, not wedge.
	awaitDone := make(chan error, 1)
	go func() {
		actx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_, err := sess.Await(actx, ids)
		awaitDone <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the chain start
	if reaped := srv.ReapSessions(); reaped != 1 {
		return nil, fmt.Errorf("reaped %d sessions, want 1", reaped)
	}
	select {
	case err = <-awaitDone:
		// The await either finished before the reap with failed/cancelled
		// states (nil) or lost its session underneath it (404 APIError).
		var ae *service.APIError
		if err != nil && !errors.As(err, &ae) {
			return nil, fmt.Errorf("in-flight await: untyped error %v", err)
		}
	case <-time.After(15 * time.Second):
		return nil, fmt.Errorf("in-flight await wedged across session expiry")
	}
	// Post-expiry requests get a stable typed error.
	var ae *service.APIError
	if _, err := sess.Submit(ctx, soloSpec(0, 0)); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		return nil, fmt.Errorf("post-expiry submit: %v, want 404 APIError", err)
	}
	// The shared runtime must drain the poisoned chain completely.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	_ = srv.Runtime().Wait(wctx) // first cancelled task's error, expected
	if err := wctx.Err(); err != nil {
		return nil, fmt.Errorf("runtime failed to drain after expiry: %w", err)
	}
	st := srv.Runtime().Stats()
	if st.Executed+st.Failed+st.Skipped != st.Submitted || st.Submitted != depth {
		return nil, fmt.Errorf("counters unbalanced after expiry: %+v", st)
	}
	// Which chain links executed before the cut is timing-dependent; the
	// fingerprint covers only the deterministic contract.
	return &Report{
		Tasks: depth, Executed: st.Executed, Failed: st.Failed, Skipped: st.Skipped,
		Fingerprint: fingerprint("session_expiry", seed, depth, "typed-errors", "drained"),
	}, nil
}

// runOverloadShed saturates a tiny shared window and verifies the server
// sheds with an explicit 503 before saturation instead of queueing, then
// recovers: everything it admitted still executes.
func runOverloadShed(ctx context.Context, seed uint64) (*Report, error) {
	srv, hs, client := newChaosServer(service.Config{
		Workers: 2, Window: 8, SessionWindow: 64,
	})
	defer func() { _ = srv.Close() }() // infrastructure-only; scenario invariants are checked explicitly
	defer hs.Close()
	sess, err := client.Open(ctx)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	const attempts = 32
	admitted, shed := 0, 0
	for i := 0; i < attempts; i++ {
		_, err := sess.Submit(ctx, soloSpec(i, 50_000))
		switch {
		case err == nil:
			admitted++
		default:
			var ae *service.APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
				return nil, fmt.Errorf("submit %d: %v, want 503 APIError under overload", i, err)
			}
			shed++
		}
	}
	if shed == 0 {
		return nil, fmt.Errorf("no submits shed across %d attempts on a %d-slot window", attempts, 8)
	}
	if _, err := sess.Await(ctx, nil); err != nil {
		return nil, fmt.Errorf("await after shed: %w", err)
	}
	stats, err := sess.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if stats.Executed != uint64(admitted) || stats.Failed != 0 {
		return nil, fmt.Errorf("executed=%d failed=%d, want all %d admitted tasks to execute", stats.Executed, stats.Failed, admitted)
	}
	if err := sess.Close(ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	// How many submits land before the window fills is timing-dependent;
	// the deterministic contract is shed>0, admitted+shed==attempts, and
	// every admitted task executing.
	return &Report{
		Tasks: admitted, Executed: stats.Executed, Shed: shed,
		Fingerprint: fingerprint("overload_shed", seed, "shed-observed", "admitted-executed"),
	}, nil
}
