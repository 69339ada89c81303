package starss

import "context"

// WaitOn blocks until every task previously submitted on the runtime itself
// (not through a Scope, whose addresses are its own: Scope.WaitOn) that
// accesses any of the given addresses has completed — StarSs's "wait on"
// pragma, a targeted alternative to the full Wait.
//
// It is a task: WaitOn submits one task without a body that declares an inout
// access to each address, and waits for its handle. The Dependence Table
// orders it behind every earlier access exactly as it would a real task, and
// it completes where its dependence count reaches zero, without visiting a
// worker — so WaitOn may be called from inside a task body even when every
// worker is busy. Being a task, it takes one window token (and blocks while
// the window is full, as Submit does), is counted by Stats — Executed, or
// Skipped when an address is poisoned, which is not WaitOn's error to report
// — and later accesses to the addresses queue behind it, not beside it. The
// task does not carry ctx: a WaitOn abandoned on its deadline leaves a task
// that still completes in order and can never fail.
//
// Like Wait, WaitOn observes every Submit that returned before the call,
// returns ctx.Err() if the context is cancelled first, and returns ErrStopped
// when the runtime is already closed instead of silently succeeding. An empty
// address set is a no-op. A nil ctx means context.Background().
func (rt *Runtime) WaitOn(ctx context.Context, addrs ...uint64) error {
	return rt.waitOn(ctx, nil, addrs)
}

// waitOn is WaitOn for the addresses of scope s's namespace; nil is the
// runtime's.
func (rt *Runtime) waitOn(ctx context.Context, s *Scope, addrs []uint64) error {
	if len(addrs) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deps := make([]Dep, len(addrs))
	for i, a := range addrs {
		deps[i] = InOut(a)
	}
	var hs [1]*Handle
	handles, err := rt.submit(ctx, context.Background(), s, []Task{{Deps: deps}}, hs[:0], false)
	if err != nil {
		return err
	}
	h := handles[0]
	// Once the task has finished the wait is over, whatever its own outcome:
	// skipped behind a failed task is the runtime's to count, not an error here.
	if err := h.Wait(ctx); !h.finished() {
		return err
	}
	return nil
}
