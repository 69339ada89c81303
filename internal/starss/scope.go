package starss

// A Scope multiplexes one tenant onto a shared Runtime — the software
// analogue of one master core among the many a single Nexus++ task manager
// serves (internal/core/master.go). Every dependency key submitted through
// a scope is rewritten to a ScopedKey carrying the scope's name, so two
// scopes using identical key names can never create cross-scope
// dependencies: they hash to distinct dependence-table segments exactly as
// two masters' address spaces occupy distinct table entries in hardware.
// A scope also keeps its own Stats, classified from each task's final
// error via the handle-completion hook, so a long-lived service can report
// per-tenant counters while the shared runtime reports the aggregate. The
// hook runs before the handle is published: once a task's handle reports
// done, the scope's counters (and whatever SetOnDone's hook maintains)
// already include it.

import (
	"context"
	"errors"
	"slices"
	"sync/atomic"
)

// ScopedKey is a user key namespaced by the scope that submitted it. It is
// the concrete key type the shared runtime's dependence banks see for
// scoped submissions; it is exported so diagnostics and tests can name it,
// but user code normally never constructs one.
type ScopedKey struct {
	Scope string
	Key   Key
}

// Scope is a named, isolated submission namespace over a shared Runtime.
// Create one per tenant with Runtime.Scope. Methods are safe for
// concurrent use; SetOnDone must be called before the first submission.
type Scope struct {
	rt   *Runtime
	name string
	// hook is s.record bound once, so attaching it to a task does not
	// allocate a method value per submission.
	hook func(err error)
	// onDone, when set, observes every scoped task's completion after the
	// scope's own counters are updated. The service layer uses it to
	// release per-session admission tokens.
	onDone func(err error)

	submitted   atomic.Uint64
	executed    atomic.Uint64
	failed      atomic.Uint64
	skipped     atomic.Uint64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
}

// Scope returns a new submission namespace named name on the runtime. Two
// scopes with different names are fully isolated even on identical user
// keys; two Scope calls with the same name alias the same namespace (their
// keys interact) but keep separate counters.
func (rt *Runtime) Scope(name string) *Scope {
	s := &Scope{rt: rt, name: name}
	s.hook = s.record
	return s
}

// Name returns the scope's namespace name.
func (s *Scope) Name() string { return s.name }

// SetOnDone registers a hook invoked with every scoped task's final error
// once the scope's counters are updated and before the task's handle
// reports done, so a caller woken by the handle sees the hook's effects.
// It runs on the finishing worker and must not block. It must be called
// before the scope's first submission and at most once.
func (s *Scope) SetOnDone(fn func(err error)) { s.onDone = fn }

// record classifies one completed task into the scope counters, mirroring
// the runtime-wide executed/failed/skipped classification.
func (s *Scope) record(err error) {
	switch {
	case err == nil:
		s.executed.Add(1)
	case errors.Is(err, ErrDependencyFailed):
		s.skipped.Add(1)
	default:
		s.failed.Add(1)
	}
	s.inFlight.Add(-1)
	if s.onDone != nil {
		s.onDone(err)
	}
}

// key namespaces one user key: the only place a ScopedKey is made.
func (s *Scope) key(k Key) Key { return ScopedKey{Scope: s.name, Key: k} }

// adopt makes tasks the scope's own: every dependency key is namespaced
// where it sits and the completion hook attached. The caller must own the
// tasks and their Deps slices.
func (s *Scope) adopt(tasks []Task) {
	for i := range tasks {
		t := &tasks[i]
		for j := range t.Deps {
			t.Deps[j].Key = s.key(t.Deps[j].Key)
		}
		t.onDone = s.hook
	}
}

// noteMax folds the current in-flight count into the high-water mark.
func (s *Scope) noteMax(n int64) {
	for {
		max := s.maxInFlight.Load()
		if n <= max || s.maxInFlight.CompareAndSwap(max, n) {
			return
		}
	}
}

// Submit submits one task through the scope: keys are namespaced, and the
// scope's counters track the task's lifecycle. Semantics otherwise match
// Runtime.Submit. The caller's Deps slice is not mutated.
func (s *Scope) Submit(ctx context.Context, t Task) (*Handle, error) {
	one := [1]Task{t}
	one[0].Deps = slices.Clone(t.Deps)
	s.adopt(one[:])
	s.noteMax(s.inFlight.Add(1))
	h, err := s.rt.Submit(ctx, one[0])
	if err != nil {
		s.inFlight.Add(-1)
		return nil, err
	}
	s.submitted.Add(1)
	return h, nil
}

// SubmitAll submits a batch through the scope with the same partial-prefix
// contract as Runtime.SubmitAll: on error the returned handles cover the
// admitted prefix, and the scope's counters cover exactly that prefix. The
// caller's slices are not mutated: the batch is copied, its Deps into one
// slab, and the copy handed to SubmitAllInPlace.
func (s *Scope) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) {
	total := 0
	for i := range tasks {
		total += len(tasks[i].Deps)
	}
	owned, slab := slices.Clone(tasks), make([]Dep, total)
	for i := range owned {
		n := copy(slab, owned[i].Deps)
		owned[i].Deps, slab = slab[:n:n], slab[n:]
	}
	return s.SubmitAllInPlace(ctx, owned)
}

// SubmitAllInPlace is SubmitAll for a caller that built the batch for this
// call and hands it over: keys are namespaced in place, so nothing is
// copied. The tasks slice is the caller's again once the call returns (the
// runtime keeps its own copy of each Task); the Deps slices belong to the
// runtime until their task finishes and must not be touched again.
func (s *Scope) SubmitAllInPlace(ctx context.Context, tasks []Task) ([]*Handle, error) {
	s.adopt(tasks)
	s.noteMax(s.inFlight.Add(int64(len(tasks))))
	handles, err := s.rt.SubmitAll(ctx, tasks)
	if n := len(tasks) - len(handles); n > 0 {
		s.inFlight.Add(-int64(n))
	}
	s.submitted.Add(uint64(len(handles)))
	return handles, err
}

// WaitOn blocks until every previously submitted scoped task accessing any
// of the given (un-namespaced) keys has completed; see Runtime.WaitOn.
func (s *Scope) WaitOn(ctx context.Context, keys ...Key) error {
	scoped := make([]Key, len(keys))
	for i, k := range keys {
		scoped[i] = s.key(k)
	}
	return s.rt.WaitOn(ctx, scoped...)
}

// InFlight returns the scope's current submitted-but-unfinished count —
// the session window occupancy of the service layer.
func (s *Scope) InFlight() int64 { return s.inFlight.Load() }

// Stats returns the scope's own counters. Hazards is always zero: hazard
// detection happens inside the shared banks and is reported runtime-wide.
func (s *Scope) Stats() Stats {
	return Stats{
		Submitted:   s.submitted.Load(),
		Executed:    s.executed.Load(),
		Failed:      s.failed.Load(),
		Skipped:     s.skipped.Load(),
		MaxInFlight: int(s.maxInFlight.Load()),
	}
}
