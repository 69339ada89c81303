package service

import (
	"context"
	"errors"
	"fmt"
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
// refuses, never blocks the HTTP handler) and its counters — and the handles
// of every task it has submitted, indexed by session-local ID for await.
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
	// handles[id] is task id's handle: IDs are dense, assigned under mu in
	// admission order. Never pruned while the session lives — a retried
	// await may name IDs that were already awaited.
	handles []*starss.Handle
	// idem is the session's dedup window: idempotency key -> the submit it
	// named. Entries for admitted batches are memoized (a retried POST gets
	// the original IDs); failed submits are removed so a retry re-attempts.
	idem     map[string]*idemEntry
	idemKeys []string // insertion order, for capped eviction
}

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
	first := uint64(len(ss.handles))
	ss.handles = append(ss.handles, handles...)
	ss.mu.Unlock()
	for i := range resp.IDs {
		resp.IDs[i] = first + uint64(i)
	}
	return resp, nil
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
	ss.mu.Lock()
	if len(ids) == 0 {
		sc.handles = append(sc.handles[:0], ss.handles...)
	} else {
		sc.handles = sc.handles[:0]
		for _, id := range ids {
			if id >= uint64(len(ss.handles)) {
				ss.mu.Unlock()
				return badRequest(fmt.Sprintf("await: unknown task id %d", id))
			}
			sc.handles = append(sc.handles, ss.handles[id])
		}
	}
	ss.mu.Unlock()

	wctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	sc.resp.Done, sc.resp.Tasks = true, sc.resp.Tasks[:0]
	for i, h := range sc.handles {
		// Block on the first still-pending task; once the deadline fires,
		// the remaining handles resolve instantly to pending or done.
		_ = h.Wait(wctx)
		st := TaskStatus{ID: uint64(i)}
		if len(ids) > 0 {
			st.ID = ids[i]
		}
		switch h.Outcome() {
		case starss.Executed:
			st.State = StateOK
		case starss.Failed:
			st.State, st.Error = StateFailed, h.Err().Error()
		case starss.Skipped:
			st.State, st.Error = StateSkipped, h.Err().Error()
		default:
			st.State = StatePending
			sc.resp.Done = false
		}
		sc.resp.Tasks = append(sc.resp.Tasks, st)
	}
	ss.touch()
	return nil
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
