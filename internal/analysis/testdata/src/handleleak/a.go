// Fixture for the handleleak analyzer: every submission's failure must
// be observable — on the handle, at a barrier, or via a delegated
// shutdown — and module Close errors must not be silently dropped.
package handleleak

import (
	"context"

	"nexuspp/internal/starss"
)

// A handle dropped in a function that observes no failure anywhere.
func dropped(rt *starss.Runtime) {
	rt.MustSubmit(starss.Task{}) // want "task handle from MustSubmit dropped"
}

// The admission that never waits hands out handles like the others.
func tryDropped(ctx context.Context, s *starss.Scope, ts []starss.Task) {
	s.TrySubmitAll(ctx, ts) // want "task handle from TrySubmitAll dropped"
}

// Discarding as _ is the same leak, spelled louder.
func blankDiscard(ctx context.Context, rt *starss.Runtime) {
	_, _ = rt.Submit(ctx, starss.Task{}) // want "task handle from Submit discarded as _"
}

// A named handle that is only used neutrally never observes its task.
func neverConsulted(rt *starss.Runtime) {
	h := rt.MustSubmit(starss.Task{}) // want "handle \"h\" is never consulted"
	println(h.Name())
}

// Consulting the handle discharges the obligation.
func consulted(rt *starss.Runtime) error {
	h := rt.MustSubmit(starss.Task{})
	return h.Err()
}

// Reading how the task ended is consulting it too.
func consultedByOutcome(rt *starss.Runtime) bool {
	h := rt.MustSubmit(starss.Task{})
	return h.Outcome() == starss.Executed
}

// So does escaping: the caller inherits the handle.
func escapes(rt *starss.Runtime) *starss.Handle {
	return rt.MustSubmit(starss.Task{})
}

// A checked barrier observes every task failure in the function.
func barrier(ctx context.Context, rt *starss.Runtime) error {
	rt.MustSubmit(starss.Task{})
	return rt.Wait(ctx)
}

// Handing the runtime to a helper delegates the observation duty.
func delegated(rt *starss.Runtime) {
	defer shutdown(rt)
	rt.MustSubmit(starss.Task{})
}

func shutdown(rt *starss.Runtime) {
	_ = rt.Close()
}

// Ranging over a batch moves the obligation to the element variable.
func batchLeaks(ctx context.Context, rt *starss.Runtime) {
	hs, err := rt.SubmitAll(ctx, nil) // want "handle \"h\" is never consulted"
	if err != nil {
		return
	}
	for _, h := range hs {
		println(h.Name())
	}
}

func batchConsulted(ctx context.Context, rt *starss.Runtime) error {
	hs, err := rt.SubmitAll(ctx, nil)
	if err != nil {
		return err
	}
	for _, h := range hs {
		if err := h.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close is the run's last barrier; dropping its error swallows the one
// failure the whole run recorded.
func closeDropped(rt *starss.Runtime) {
	rt.Close() // want "rt.Close error dropped"
}

func closeDeferred(rt *starss.Runtime) {
	defer rt.Close() // want "rt.Close error dropped"
}

// Discarding explicitly is allowed — the reader sees the decision.
func closeExplicit(rt *starss.Runtime) {
	_ = rt.Close()
}

// A dropped Close after a checked barrier is shutdown, not swallowing.
func closeAfterBarrier(ctx context.Context, rt *starss.Runtime) error {
	defer rt.Close()
	return rt.Wait(ctx)
}

// The event stream carries no obligation: Recorder.Drain returns data, not
// an error, and the recorder has no Close — draining (or not draining) must
// never be flagged. The handle duty is unchanged and discharged here by the
// checked barrier.
func drainEvents(ctx context.Context, rt *starss.Runtime) error {
	rt.MustSubmit(starss.Task{})
	if err := rt.Wait(ctx); err != nil {
		return err
	}
	events := rt.Events().Drain()
	_ = rt.Events().Dropped()
	_ = events
	return nil
}

// Dropping the drained slice outright is equally fine — events are
// diagnostics, not completion state.
func drainDiscarded(rt *starss.Runtime) {
	defer shutdown(rt)
	rt.MustSubmit(starss.Task{})
	rt.Events().Drain()
}
