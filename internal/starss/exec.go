package starss

// This file is the body-execution engine: one attempt loop per released
// task, applying — in order — injected faults (internal/faults), the
// per-task deadline, and the per-task retry policy. The paper's hardware
// never re-runs a task: a worker core either completes it or the whole chip
// has failed. In the software service a body failing is an ordinary event,
// so Task gains the recovery policy the hardware never needed: MaxRetries
// re-arms the task on the worker — before resolveFinished runs, so a
// recovered attempt never poisons dependents — with capped exponential
// backoff and full jitter between attempts.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"nexuspp/internal/faults"
	"nexuspp/internal/obs"
)

// ErrTaskTimeout marks a task body that exceeded its Task.Timeout; the
// wrapping error names the task and the deadline. Dependents are poisoned
// exactly as for any other failure.
var ErrTaskTimeout = errors.New("starss: task deadline exceeded")

// runNode executes one released node's lifecycle up to (not including) the
// handle-finished path, recording the outcome on the node: skipped when a
// transitive dependency poisoned it, failed when its context was cancelled
// before it started, executed as it stands when it has no body (a WaitOn),
// and otherwise the final attempt's result — panics recovered into
// ErrTaskPanicked, deadline overruns surfaced as ErrTaskTimeout, and
// failures re-armed up to Task.MaxRetries times before they stick and
// poison dependents.
func (rt *Runtime) runNode(node *taskNode, worker int) {
	if p := node.poison.Load(); p != nil {
		node.wasSkipped = true
		node.err = fmt.Errorf("%w: task %q skipped: %w", ErrDependencyFailed, node.handle.Name(), p.err)
		return
	}
	if err := node.ctx.Err(); err != nil {
		node.err = fmt.Errorf("starss: task %q cancelled before start: %w", node.handle.Name(), err)
		return
	}
	if node.task.Do == nil {
		// A WaitOn: being ready was all it was submitted for. No attempt
		// means no injected fault either — it cannot fail, only be skipped.
		return
	}
	attempts := 1 + node.task.MaxRetries
	for attempt := 0; ; attempt++ {
		node.err = rt.runAttempt(node, attempt, worker)
		if node.err == nil || attempt+1 >= attempts || !retryable(node) {
			return
		}
		rt.retried.Add(1)
		rt.emit(worker, obs.KindRetry, node, worker)
		if !sleepBackoff(node.ctx, &node.task, attempt) {
			// The submission context died during the backoff; the recorded
			// error of the last attempt stands and poisons dependents.
			return
		}
	}
}

// runAttempt executes one attempt of the task body: injected faults first,
// then the body under the per-task deadline. A panic is recovered into
// ErrTaskPanicked. Config.Faults nil (the default) disables injection at the
// cost of one branch per attempt.
func (rt *Runtime) runAttempt(node *taskNode, attempt, worker int) (err error) {
	ctx := node.ctx
	deadline := node.task.Timeout
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadlineCause(ctx, time.Now().Add(deadline),
			fmt.Errorf("%w: task %q after %v", ErrTaskTimeout, node.handle.Name(), deadline))
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: task %q: %v", ErrTaskPanicked, node.handle.Name(), r)
		}
	}()
	if f := rt.cfg.Faults; f != nil {
		k := faults.TaskKey(node.handle.index, attempt)
		switch {
		case f.Should(faults.SiteTaskError, k):
			rt.emit(worker, obs.KindFault, node, worker)
			return fmt.Errorf("%w: task %q body error", faults.ErrInjected, node.handle.Name())
		case f.Should(faults.SiteTaskPanic, k):
			rt.emit(worker, obs.KindFault, node, worker)
			panic(fmt.Sprintf("%v: injected panic in task %q", faults.ErrInjected, node.handle.Name()))
		case f.Should(faults.SiteTaskHang, k):
			// A hang can only end when the context does — the stuck-worker
			// case Task.Timeout exists to bound.
			rt.emit(worker, obs.KindFault, node, worker)
			<-ctx.Done()
			return timeoutCause(ctx, deadline, context.Cause(ctx))
		}
	}
	if err := node.task.Do(ctx); err != nil {
		return timeoutCause(ctx, deadline, err)
	}
	return nil
}

// timeoutCause rewrites a bare context.DeadlineExceeded coming out of a
// body into the attempt's ErrTaskTimeout cause, so handle errors name the
// task and the budget instead of the anonymous stdlib sentinel. Deadlines
// inherited from the submission context are left untouched.
func timeoutCause(ctx context.Context, deadline time.Duration, err error) error {
	if deadline <= 0 || err == nil || !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if cause := context.Cause(ctx); errors.Is(cause, ErrTaskTimeout) {
		return cause
	}
	return err
}

// retryable reports whether the node's recorded failure may be re-armed: a
// dead submission context (cancellation, session drain, shutdown) is final,
// everything else — body errors, panics, per-attempt deadline overruns,
// injected faults — earns another attempt.
func retryable(node *taskNode) bool {
	return node.ctx.Err() == nil
}

// sleepBackoff blocks between attempts: capped exponential backoff with
// full jitter (AWS-style — the delay is uniform in [0, min(cap, base<<n)],
// which decorrelates retry herds better than jittering around the full
// backoff). Returns false when the submission context died during the
// sleep. Defaults: base 1ms, cap 250ms.
func sleepBackoff(ctx context.Context, t *Task, attempt int) bool {
	base := t.RetryBackoff
	if base <= 0 {
		base = time.Millisecond
	}
	max := t.RetryMaxBackoff
	if max <= 0 {
		max = 250 * time.Millisecond
	}
	d := base
	// Cap the shift so the doubling cannot overflow time.Duration.
	if attempt > 30 {
		attempt = 30
	}
	if d <<= attempt; d <= 0 || d > max {
		d = max
	}
	// Full jitter: uniform in [0, d]. Timing is intentionally not seeded —
	// fault *schedules* are deterministic per seed; backoff spacing is pure
	// timing and never affects which tasks fail.
	d = rand.N(d + 1)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
