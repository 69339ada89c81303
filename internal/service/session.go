package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nexuspp/internal/starss"
)

// Session lifecycle causes, surfaced through task errors when a drain
// cancels unstarted work.
var (
	// ErrSessionClosed is the cancellation cause of an explicitly closed
	// session (DELETE, or server shutdown).
	ErrSessionClosed = errors.New("service: session closed")
	// ErrSessionExpired is the cancellation cause of a session reaped by
	// the idle janitor — the graceful-drain path for vanished clients.
	ErrSessionExpired = errors.New("service: session expired (client idle)")
	// ErrSessionDeadline is the cancellation cause of a session that ran
	// past its client-requested deadline: unstarted tasks fail, poisoning
	// propagates, the drain is identical to expiry.
	ErrSessionDeadline = errors.New("service: session deadline exceeded")
)

// session is one client's isolated slice of the shared runtime: a bounded
// starss.Scope — keyspace isolation, the session's admission window (which
// refuses, never blocks the HTTP handler) and its counters — and what await
// needs of every task it has submitted, by session-local ID: the handle of a
// task that may still be running, the outcome of one that did not end ok.
type session struct {
	id    string
	scope *starss.Scope
	// ctx is the context every task is submitted with; cancel drains the
	// session: unstarted tasks fail, dependents poison, kick-off lists
	// drain, and the scope's window empties as they finish.
	ctx    context.Context
	cancel context.CancelCauseFunc
	// window is the scope's limit, kept for reporting.
	window int
	// retried is the server's count of max_retries re-arms (buildTasks).
	retried    *atomic.Uint64
	lastActive atomic.Int64 // unix nanoseconds
	closed     atomic.Bool

	mu sync.Mutex
	// next is the ID the next admitted task gets: IDs are dense, assigned
	// under mu in admission order.
	next uint64
	// live holds, in ID order, the handles of the tasks that were unfinished
	// at the last sweep or admitted since. A finished task leaves at the next
	// sweep (sweepLocked), so the session keeps what is in flight — a few
	// windows' worth at most — not every handle it ever made.
	live []liveTask
	// sweepAt is the length of live at which the next admission sweeps it.
	sweepAt int
	// ended remembers each swept task that did not end ok; a swept ID not in
	// it ended ok. A retried await for an ID already swept — a dropped
	// response, say — is answered from it.
	ended map[uint64]endedTask
	// idem is the session's dedup window: idempotency key -> the submit it
	// named. Entries for admitted batches are memoized (a retried POST gets
	// the original IDs); failed submits are removed so a retry re-attempts.
	idem     map[string]*idemEntry
	idemKeys []string // insertion order, for capped eviction
}

// liveTask is a task await may still have to wait for.
type liveTask struct {
	id uint64
	h  *starss.Handle
}

// endedTask is how a swept task that did not end ok ended.
type endedTask struct {
	outcome starss.Outcome
	err     error
}

// sweepMin is the smallest sweepAt: a sweep costs a pass over live, so it
// waits for at least this many entries, and for twice what the last sweep
// kept, which makes sweeping O(1) per task.
const sweepMin = 64

// idemEntry is one idempotency key's state. done closes when the first
// carrier of the key has a result; concurrent duplicates wait on it instead
// of double-admitting.
type idemEntry struct {
	done chan struct{}
	resp *SubmitResponse
	herr *httpError
}

// idemWindowCap bounds the per-session dedup window; the oldest settled
// entries are evicted first.
const idemWindowCap = 1024

func newSession(parent context.Context, id string, scope *starss.Scope, window int, deadline time.Duration, retried *atomic.Uint64) *session {
	var cancelT context.CancelFunc
	if deadline > 0 {
		parent, cancelT = context.WithDeadlineCause(parent, time.Now().Add(deadline), ErrSessionDeadline)
	}
	ctx, cancel := context.WithCancelCause(parent)
	if cancelT != nil {
		// Release the deadline timer as soon as the session context dies for
		// any reason — close, expiry, or the deadline itself.
		go func() {
			<-ctx.Done()
			cancelT()
		}()
	}
	ss := &session{
		id:      id,
		scope:   scope,
		ctx:     ctx,
		cancel:  cancel,
		window:  window,
		retried: retried,
		idem:    make(map[string]*idemEntry),
	}
	ss.touch()
	// Completions count as activity: a session with live work never expires.
	scope.SetOnDone(func(error) { ss.touch() })
	return ss
}

func (ss *session) touch() { ss.lastActive.Store(time.Now().UnixNano()) }
func (ss *session) idleFor() time.Duration {
	return time.Duration(time.Now().UnixNano() - ss.lastActive.Load())
}

// submit admits a batch, deduplicating on the idempotency key when one is
// set: a repeated key whose batch was admitted returns the original IDs
// without re-executing, and a concurrent duplicate waits for the first
// carrier instead of double-admitting. Failed submits are never memoized —
// a retry after a 429 must get a fresh admission attempt.
func (ss *session) submit(specs []TaskSpec, key string) (*SubmitResponse, *httpError) {
	if key == "" {
		return ss.submitOnce(specs)
	}
	ss.mu.Lock()
	if e, ok := ss.idem[key]; ok {
		ss.mu.Unlock()
		<-e.done
		if e.herr != nil {
			return nil, e.herr
		}
		dup := *e.resp
		dup.Deduped = true
		return &dup, nil
	}
	e := &idemEntry{done: make(chan struct{})}
	ss.idem[key] = e
	ss.idemKeys = append(ss.idemKeys, key)
	ss.evictIdemLocked()
	ss.mu.Unlock()
	resp, herr := ss.submitOnce(specs)
	e.resp, e.herr = resp, herr
	close(e.done)
	if herr != nil {
		ss.mu.Lock()
		if cur, ok := ss.idem[key]; ok && cur == e {
			delete(ss.idem, key)
		}
		ss.mu.Unlock()
	}
	return resp, herr
}

// evictIdemLocked bounds the dedup window: the oldest settled entries are
// evicted first; an in-flight head entry stops eviction rather than forcing
// a scan. The key log is compacted when deletions (unmemoized failures)
// leave it much longer than the map. Caller holds ss.mu.
func (ss *session) evictIdemLocked() {
	for len(ss.idem) > idemWindowCap && len(ss.idemKeys) > 0 {
		k := ss.idemKeys[0]
		if e, ok := ss.idem[k]; ok {
			select {
			case <-e.done:
				delete(ss.idem, k)
			default:
				return
			}
		}
		ss.idemKeys = ss.idemKeys[1:]
	}
	if len(ss.idemKeys) > 2*idemWindowCap && len(ss.idemKeys) > 2*len(ss.idem) {
		kept := ss.idemKeys[:0]
		for _, k := range ss.idemKeys {
			if _, ok := ss.idem[k]; ok {
				kept = append(kept, k)
			}
		}
		ss.idemKeys = kept
	}
}

// submitOnce is the non-deduplicating admission path: it returns the
// assigned session-local IDs or an httpError (429 with Retry-After on a
// full session window, 503 on a full shared one; the submit path never
// blocks the caller on admission).
func (ss *session) submitOnce(specs []TaskSpec) (*SubmitResponse, *httpError) {
	ss.touch()
	n := len(specs)
	if n == 0 {
		return nil, badRequest("submit: empty task list")
	}
	if n > ss.window {
		return nil, badRequest(fmt.Sprintf(
			"submit: batch of %d exceeds the session window of %d and can never be admitted; split the batch", n, ss.window))
	}
	// The runtime copies each Task into its node, so the slice the batch is
	// built in is free again once TrySubmitAll returns; cleared, so the
	// pool pins neither names nor Deps slabs.
	buf := taskSlices.Get().(*[]starss.Task)
	defer func() {
		clear(*buf)
		taskSlices.Put(buf)
	}()
	var err error
	if *buf, err = buildTasks((*buf)[:0], specs, ss.retried); err != nil {
		return nil, badRequest("submit: " + err.Error())
	}
	handles, err := ss.scope.TrySubmitAll(ss.ctx, *buf)
	if err != nil {
		return nil, submitError(err)
	}
	// The response outlives the request (an idempotency entry keeps it), so
	// it is a fresh exact-size allocation, never pooled.
	resp := &SubmitResponse{IDs: make([]uint64, len(handles))}
	ss.mu.Lock()
	if len(ss.live) >= ss.sweepAt {
		ss.sweepLocked()
	}
	for i, h := range handles {
		resp.IDs[i] = ss.next
		ss.live = append(ss.live, liveTask{ss.next, h})
		ss.next++
	}
	ss.mu.Unlock()
	return resp, nil
}

// sweepLocked drops the finished tasks from live, remembering the outcome
// of each that did not end ok. Caller holds ss.mu.
func (ss *session) sweepLocked() {
	kept := ss.live[:0]
	for _, t := range ss.live {
		switch o := t.h.Outcome(); o {
		case starss.Pending:
			kept = append(kept, t)
		case starss.Executed:
		default:
			if ss.ended == nil {
				ss.ended = make(map[uint64]endedTask)
			}
			ss.ended[t.id] = endedTask{o, t.h.Err()}
		}
	}
	clear(ss.live[len(kept):])
	ss.live = kept
	ss.sweepAt = max(2*len(kept), sweepMin)
}

// taskSlices pools the []starss.Task a batch is built in.
var taskSlices = sync.Pool{New: func() any { return new([]starss.Task) }}

// The refusals of a full window are shared values: a refused submit
// allocates nothing. errShed is the overload shed the submit handler counts.
var (
	errSessionFull = &httpError{code: 429, msg: "session window full: the batch does not fit beside the session's in-flight tasks", retryAfter: 1}
	errShed        = &httpError{code: 503, msg: "server overloaded: the batch does not fit the shared in-flight window", retryAfter: 1}
)

// submitError maps a runtime admission error onto an HTTP status.
func submitError(err error) *httpError {
	switch {
	case errors.Is(err, starss.ErrScopeFull):
		return errSessionFull
	case errors.Is(err, starss.ErrWindowFull):
		return errShed
	case errors.Is(err, starss.ErrStopped):
		return &httpError{code: 503, msg: "runtime is shutting down"}
	case errors.Is(err, ErrSessionDeadline), errors.Is(err, context.DeadlineExceeded):
		return &httpError{code: 410, msg: "session deadline exceeded"}
	case errors.Is(err, context.Canceled), errors.Is(err, ErrSessionClosed), errors.Is(err, ErrSessionExpired):
		return &httpError{code: 410, msg: "session closed"}
	default:
		return &httpError{code: 500, msg: err.Error()}
	}
}

// await blocks until the tasks sc.req names (every task submitted so far
// when it names none) complete or the timeout expires, and reports each
// task's state in sc.resp. Unknown IDs are a client error.
func (ss *session) await(ctx context.Context, sc *awaitScratch) *httpError {
	ss.touch()
	ids := sc.req.IDs
	timeout := 30 * time.Second
	if sc.req.TimeoutMS > 0 {
		timeout = time.Duration(sc.req.TimeoutMS) * time.Millisecond
	}
	if timeout > 2*time.Minute {
		timeout = 2 * time.Minute
	}
	// sc.handles[i] is the handle of the task sc.resp.Tasks[i] reports, or
	// nil when the task was swept and the status is already final.
	ss.mu.Lock()
	if len(ids) == 0 {
		for id := range ss.next {
			ss.resolveLocked(sc, id)
		}
	} else {
		for _, id := range ids {
			if id >= ss.next {
				ss.mu.Unlock()
				return badRequest(fmt.Sprintf("await: unknown task id %d", id))
			}
			ss.resolveLocked(sc, id)
		}
	}
	ss.mu.Unlock()

	wctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	sc.resp.Done = true
	for i, h := range sc.handles {
		if h == nil {
			continue
		}
		// Block on the first still-pending task; once the deadline fires,
		// the remaining handles resolve instantly to pending or done.
		_ = h.Wait(wctx)
		st := &sc.resp.Tasks[i]
		*st = taskStatus(st.ID, h.Outcome(), h.Err())
		if st.State == StatePending {
			sc.resp.Done = false
		}
	}
	ss.touch()
	return nil
}

// resolveLocked appends task id to sc: its handle while it is live, its
// final status once it was swept. Caller holds ss.mu.
func (ss *session) resolveLocked(sc *awaitScratch, id uint64) {
	var h *starss.Handle
	st := TaskStatus{ID: id, State: StateOK}
	if i, ok := slices.BinarySearchFunc(ss.live, id, func(t liveTask, id uint64) int { return cmp.Compare(t.id, id) }); ok {
		h = ss.live[i].h
	} else if e, ok := ss.ended[id]; ok {
		st = taskStatus(id, e.outcome, e.err)
	}
	sc.resp.Tasks = append(sc.resp.Tasks, st)
	sc.handles = append(sc.handles, h)
}

// taskStatus is the wire form of a task's outcome.
func taskStatus(id uint64, o starss.Outcome, err error) TaskStatus {
	switch o {
	case starss.Executed:
		return TaskStatus{ID: id, State: StateOK}
	case starss.Failed:
		return TaskStatus{ID: id, State: StateFailed, Error: err.Error()}
	case starss.Skipped:
		return TaskStatus{ID: id, State: StateSkipped, Error: err.Error()}
	default:
		return TaskStatus{ID: id, State: StatePending}
	}
}

// stats snapshots the session counters.
func (ss *session) stats() SessionStats {
	st := ss.scope.Stats()
	return SessionStats{
		Session:     ss.id,
		Window:      ss.window,
		InFlight:    ss.scope.InFlight(),
		TaskCounts:  st.TaskCounts,
		MaxInFlight: st.MaxInFlight,
	}
}

// close drains the session: the cancellation cause fails every unstarted
// task, poisoning propagates through its graph, and in-flight bodies see
// ctx.Done(). Idempotent.
func (ss *session) close(cause error) {
	if ss.closed.CompareAndSwap(false, true) {
		ss.cancel(cause)
	}
}
