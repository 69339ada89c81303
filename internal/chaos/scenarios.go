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
	"nexuspp/internal/faults"
	"nexuspp/internal/service"
	"nexuspp/internal/starss"
	"nexuspp/internal/workload"
)

// runTaskPanic injects body panics into an irregular random DAG with
// admission gated ahead of execution, and verifies the skipped set matches
// the dependency-graph oracle exactly: a task is skipped iff a transitive
// predecessor failed, failed iff the seeded injector picked it (and nothing
// upstream failed first), executed otherwise.
func runTaskPanic(ctx context.Context, seed uint64) (*Report, error) {
	const n = 200
	src := workload.RandomDAG(workload.RandomDAGConfig{Tasks: n, Seed: seed})
	g := depgraph.Build(src)
	in := faults.New(&faults.Plan{Seed: seed, Rules: []faults.Rule{{Site: faults.SiteTaskPanic, Prob: 0.05}}})

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
		if want[i] == wantExec && in.Peek(faults.SiteTaskPanic, faults.TaskKey(uint64(i), 0)) {
			want[i] = wantFail
		}
	}

	rt := starss.New(starss.Config{Workers: 4, Window: n + 1})
	tr := workload.Collect(src)
	gate := make(chan struct{})
	handles := make([]*starss.Handle, n)
	for i := range tr.Tasks {
		t := starss.TaskFromSpec(tr.Tasks[i], starss.ReplayOptions{ZeroCost: true})
		idx := uint64(i)
		t.Do = func(ctx context.Context) error {
			<-gate
			if in.Should(faults.SiteTaskPanic, faults.TaskKey(idx, 0)) {
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
	counts := in.Counts()
	return &Report{
		Tasks: n, Executed: st.Executed, Failed: st.Failed, Skipped: st.Skipped,
		Faults:      counts,
		Fingerprint: fingerprint("task_panic", seed, st.Executed, st.Failed, st.Skipped, faultLine(counts)),
	}, nil
}

// runTaskHangDeadline injects hung bodies into independent tasks, each body
// wrapped in a starss.Deadline, and verifies every hung task fails with
// ErrTaskTimeout — the deadline, not a wedge, ends the hang — while the
// rest execute.
func runTaskHangDeadline(ctx context.Context, seed uint64) (*Report, error) {
	const n = 64
	in := faults.New(&faults.Plan{Seed: seed, Rules: []faults.Rule{{Site: faults.SiteTaskHang, Prob: 0.2}}})
	var wantFailed uint64
	for i := 0; i < n; i++ {
		if in.Peek(faults.SiteTaskHang, faults.TaskKey(uint64(i), 0)) {
			wantFailed++
		}
	}
	rt := starss.New(starss.Config{Workers: 8, Window: n + 1})
	handles := make([]*starss.Handle, n)
	for i := 0; i < n; i++ {
		idx := uint64(i)
		hang := func(ctx context.Context) error {
			if in.Should(faults.SiteTaskHang, faults.TaskKey(idx, 0)) {
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
		if hung := in.Peek(faults.SiteTaskHang, faults.TaskKey(uint64(i), 0)); hung {
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
	counts := in.Counts()
	return &Report{
		Tasks: n, Executed: st.Executed, Failed: st.Failed,
		Faults:      counts,
		Fingerprint: fingerprint("task_hang_deadline", seed, st.Executed, st.Failed, faultLine(counts)),
	}, nil
}

// runRetryRecovers injects body errors at 50% per attempt into independent
// tasks whose bodies starss.Retry re-arms up to 4 times, and verifies the
// retry recovers exactly the tasks the seeded schedule says it should:
// expected failures and expected re-arms are both computed from Peek.
func runRetryRecovers(ctx context.Context, seed uint64) (*Report, error) {
	const (
		n       = 64
		retries = 4
	)
	in := faults.New(&faults.Plan{Seed: seed, Rules: []faults.Rule{{Site: faults.SiteTaskError, Prob: 0.5}}})
	var wantFailed, wantRetried uint64
	for i := 0; i < n; i++ {
		a := 0
		for a <= retries && in.Peek(faults.SiteTaskError, faults.TaskKey(uint64(i), a)) {
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
	var retried atomic.Uint64
	handles := make([]*starss.Handle, n)
	for i := 0; i < n; i++ {
		idx, attempts := uint64(i), 0 // Retry makes one call at a time
		flaky := func(ctx context.Context) error {
			a := attempts
			attempts++
			if in.Should(faults.SiteTaskError, faults.TaskKey(idx, a)) {
				return fmt.Errorf("%w: task %d attempt %d", faults.ErrInjected, idx, a)
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
		if err := h.Err(); err != nil && !errors.Is(err, faults.ErrInjected) {
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
	counts := in.Counts()
	return &Report{
		Tasks: n, Executed: st.Executed, Failed: st.Failed, Retried: retried.Load(),
		Faults:      counts,
		Fingerprint: fingerprint("retry_recovers", seed, st.Executed, st.Failed, retried.Load(), faultLine(counts)),
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
	in := faults.New(&faults.Plan{Seed: seed, Rules: []faults.Rule{{Site: faults.SiteReqDup, Every: 2}}})
	clean := client.HTTP
	client.HTTP = &http.Client{Transport: &faults.Transport{In: in}}
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
		Faults:      in.Counts(),
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
	in := faults.New(&faults.Plan{Seed: seed, Rules: []faults.Rule{{Site: faults.SiteRespDrop, Every: 3}}})
	clean := client.HTTP
	client.HTTP = &http.Client{Transport: &faults.Transport{In: in}}
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
	if drops := in.Fired(faults.SiteRespDrop); uint64(totalRetries) != drops {
		return nil, fmt.Errorf("client retries=%d, want one per dropped response (%d)", totalRetries, drops)
	}
	if totalRetries == 0 {
		return nil, fmt.Errorf("no responses dropped; the scenario exercised nothing")
	}
	if err := sess.Close(ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return &Report{
		Tasks: n, Executed: stats.Executed, ClientRetries: totalRetries,
		Faults:      in.Counts(),
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
