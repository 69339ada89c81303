package starss

import "sync"

// readyQueue is the runtime's Global Ready list: the FIFO of tasks whose
// dependence count reached zero and that wait for a worker. It is a ring of
// exactly Window slots — every in-flight task fits, so a push never blocks:
// not a submitter, not a worker on the finish path, and not Close, which
// relies on the drain it waits for never parking behind a full queue.
//
// A push hands over any number of tasks under one lock and wakes at most as
// many parked workers as it brought tasks; while every worker is busy a push
// wakes nobody. Workers pop one task at a time: a ready task is only ever in
// the ring or on a worker that is about to run it, never parked in a
// worker's private batch behind a running body — a body that waits on such a
// task (through WaitOn, say) would wait forever.
//
// Lock order: mu is a leaf, only ever taken with no bank held (dispatch's
// contract: its caller has released the task's banks) and never held across
// anything but the ring's own bookkeeping.
type readyQueue struct {
	mu sync.Mutex
	// wake parks idle workers (L is &mu); parked counts the workers waiting
	// on it that no push has signalled yet, so a signal is spent only where
	// somebody will receive it.
	wake   sync.Cond
	ring   []*taskNode
	head   int // index of the oldest task
	n      int // tasks queued
	parked int
	closed bool
}

// init sizes the ring for window in-flight tasks.
func (q *readyQueue) init(window int) {
	q.ring = make([]*taskNode, window)
	q.wake.L = &q.mu
}

// push appends nodes in order and wakes up to len(nodes) parked workers. It
// does not keep the slice: callers hand over a stack buffer.
func (q *readyQueue) push(nodes []*taskNode) {
	q.mu.Lock()
	if q.n+len(nodes) > len(q.ring) {
		q.mu.Unlock()
		panic("starss: more ready tasks than the window admits")
	}
	tail := q.head + q.n
	if tail >= len(q.ring) {
		tail -= len(q.ring)
	}
	for _, node := range nodes {
		q.ring[tail] = node
		if tail++; tail == len(q.ring) {
			tail = 0
		}
	}
	q.n += len(nodes)
	wake := min(q.parked, len(nodes))
	q.parked -= wake
	q.mu.Unlock()
	for ; wake > 0; wake-- {
		q.wake.Signal()
	}
}

// pop takes the oldest task, parking the calling worker while the queue is
// empty. It reports false once the queue is closed and drained.
func (q *readyQueue) pop() (*taskNode, bool) {
	q.mu.Lock()
	for q.n == 0 {
		if q.closed {
			q.mu.Unlock()
			return nil, false
		}
		q.parked++
		q.wake.Wait()
	}
	node := q.ring[q.head]
	q.ring[q.head] = nil // a finished task must not stay reachable from the ring
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	q.mu.Unlock()
	return node, true
}

// close wakes every parked worker; each drains what is left and then hears
// that the queue is closed. Nothing may be pushed afterwards.
func (q *readyQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.parked = 0
	q.mu.Unlock()
	q.wake.Broadcast()
}

// len is the number of tasks queued.
func (q *readyQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
