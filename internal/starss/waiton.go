package starss

import "context"

// WaitOn blocks until every task previously submitted on the runtime itself
// (not through a Scope, whose keys are its own: Scope.WaitOn) that accesses
// any of the given keys has completed — StarSs's "wait on" pragma, a targeted
// alternative to the full Wait. Like Wait, it observes every Submit that
// returned before the call, returns ctx.Err() if the context is cancelled
// first, and returns ErrStopped when the runtime is already closed instead
// of silently succeeding. An empty key set is a no-op. A nil ctx means
// context.Background().
func (rt *Runtime) WaitOn(ctx context.Context, keys ...Key) error {
	return rt.waitOn(ctx, 0, keys)
}

// waitOn is WaitOn for the keys of namespace ns.
func (rt *Runtime) waitOn(ctx context.Context, ns uint64, keys []Key) error {
	if len(keys) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-rt.stopped:
		return ErrStopped
	default:
	}
	if f := rt.funnel; f != nil && !f.fence(rt.stopped) {
		return ErrStopped
	}
	// Register before probing: the finish path only takes coord when it
	// sees a positive waiter count, so the count must be visible before
	// the segments this waiter saw busy can drain.
	reply := make(chan struct{})
	rt.coord.Lock()
	rt.waiterCount.Add(1)
	if rt.quiet(ns, keys) {
		rt.waiterCount.Add(-1)
		rt.coord.Unlock()
		return nil
	}
	rt.waiters = append(rt.waiters, waitReq{ns: ns, keys: keys, reply: reply})
	rt.coord.Unlock()
	select {
	case <-reply:
		return nil
	case <-ctx.Done():
	}
	// Deregister, unless a finisher signalled us concurrently — then the
	// wait in fact completed and the cancellation lost the race.
	rt.coord.Lock()
	for i := range rt.waiters {
		if rt.waiters[i].reply == reply {
			rt.waiters = append(rt.waiters[:i], rt.waiters[i+1:]...)
			rt.waiterCount.Add(-1)
			rt.coord.Unlock()
			return ctx.Err()
		}
	}
	rt.coord.Unlock()
	return nil
}

type waitReq struct {
	ns    uint64
	keys  []Key
	reply chan struct{}
}
