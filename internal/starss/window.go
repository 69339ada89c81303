package starss

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// window is a counted in-flight window, the one admission mechanism: the
// runtime's is the software Task Pool, a Scope's its share of it. One
// atomic counter is both the number of submitted-but-unfinished tasks and
// the admission gate: a submitter reserves the tokens of a whole SubmitAll
// chunk with one compare-and-swap, a finisher returns one with one atomic
// add, and nobody touches a lock or a channel unless the window is full.
// Because the count that admits is the count that is reported, in-flight
// can never exceed the limit. It is also the count that refuses: shut sets
// one bit of it, so whoever holds a token got it before the window shut and
// a shut window that reads zero stays empty — all Close needs to know.
//
// Only a full window sends a submitter to the wait list. The list is FIFO:
// once anyone is queued, later arrivals queue behind them even when their
// own (smaller) demand would fit, so a 256-token chunk cannot be starved by
// a stream of single Submits.
type window struct {
	limit int64
	used  atomic.Int64 // reserved tokens == in-flight tasks; plus windowShut once shut
	max   atomic.Int64 // high-water mark of used
	// need is the head waiter's demand, 0 while nobody is queued. It is the
	// only thing the fast paths read: tryAcquire bypasses the list when it
	// is 0, release takes mu only when the head would now fit.
	need  atomic.Int64
	mu    sync.Mutex
	queue []*windowWaiter // FIFO, guarded by mu
}

type windowWaiter struct {
	n     int64
	ready chan struct{} // closed once n tokens are reserved for the waiter
}

// windowShut is the bit of used that marks the window shut, above any count.
const windowShut = 1 << 62

// count is the number of reserved tokens: the tasks in flight.
func (w *window) count() int64 { return w.used.Load() &^ windowShut }

// shut makes every later reservation fail, in one atomic step with the
// count: a tryReserve racing it either took its tokens first or takes none.
func (w *window) shut() { w.used.Or(windowShut) }

func (w *window) isShut() bool { return w.used.Load() >= windowShut }

// tryReserve takes n tokens if they fit, all or nothing.
func (w *window) tryReserve(n int64) bool {
	for {
		u := w.used.Load()
		if u >= windowShut || u+n > w.limit {
			return false
		}
		if w.used.CompareAndSwap(u, u+n) {
			for {
				max := w.max.Load()
				if u+n <= max || w.max.CompareAndSwap(max, u+n) {
					return true
				}
			}
		}
	}
}

// tryAcquire is acquire for a caller that will not wait: all n tokens or
// none, and none while anyone is queued, so it never overtakes an acquire.
func (w *window) tryAcquire(n int64) bool {
	return w.need.Load() == 0 && w.tryReserve(n)
}

// acquire reserves n tokens (n <= limit), blocking in FIFO order while the
// window is full. It returns ctx.Err() or ErrStopped — holding no tokens —
// when ctx is cancelled or stopped closes first; a shut window grants
// nothing, so its acquirers all end up here once stopped closes. A grant
// that races the cancellation or the stop wins: acquire then returns nil
// with the tokens held, and the caller admits its tasks like any other.
func (w *window) acquire(ctx context.Context, stopped <-chan struct{}, n int64) error {
	if w.tryAcquire(n) {
		return nil
	}
	wt := &windowWaiter{n: n, ready: make(chan struct{})}
	w.mu.Lock()
	w.queue = append(w.queue, wt)
	// Publishing need and then re-trying the head closes the lost-wake-up
	// window: a release that read need == 0 happened before this retry
	// reads used, and every later release sees the demand.
	w.grantLocked()
	w.mu.Unlock()
	var err error
	select {
	case <-wt.ready:
		return nil
	case <-ctx.Done():
		err = ctx.Err()
	case <-stopped:
		err = ErrStopped
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, q := range w.queue {
		if q == wt {
			w.queue = slices.Delete(w.queue, i, i+1)
			// A departing head may have been all that held back the
			// smaller demands queued behind it.
			w.grantLocked()
			return err
		}
	}
	return nil // granted concurrently
}

// grantLocked serves waiters from the head for as long as they fit and
// republishes the new head's demand. The caller holds mu.
func (w *window) grantLocked() {
	for len(w.queue) > 0 {
		head := w.queue[0]
		// Store before tryReserve reads used: a concurrent release either
		// is seen by that read or sees this demand.
		w.need.Store(head.n)
		if !w.tryReserve(head.n) {
			return
		}
		w.queue[0] = nil
		w.queue = w.queue[1:]
		close(head.ready)
	}
	w.queue = nil
	w.need.Store(0)
}

// release returns n tokens and reports the tokens still reserved.
func (w *window) release(n int64) int64 {
	u := w.used.Add(-n)
	if need := w.need.Load(); need > 0 && u+need <= w.limit {
		w.mu.Lock()
		w.grantLocked()
		w.mu.Unlock()
	}
	return u &^ windowShut
}
