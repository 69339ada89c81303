package starss

// A Scope multiplexes one tenant onto a shared Runtime — the software
// analogue of one master core among the many a single Nexus++ task manager
// serves (internal/core/master.go). Every scope is a namespace of its own:
// the number it takes from the runtime is part of the Dependence Table key
// of every dependency submitted through it (tableKey), so two scopes
// using identical addresses can never create cross-scope dependencies — they
// file distinct dependence-table segments exactly as two masters' address
// spaces occupy distinct table entries in hardware. Nothing is rewritten:
// a scoped task's node carries its scope, and Check Deps and Handle Finished
// read the namespace off it.
// A scope also has a window of the runtime's own type (window.go), its
// share of the shared Task Pool — a scoped task holds one token of each
// from admission to Handle Finished — and its own tally, fed the outcome
// the runtime decided, so a long-lived service can bound and report each
// tenant while the shared runtime reports the aggregate. Both are settled
// before the handle is published: once a task's handle reports done, the
// scope's window and counters (and whatever SetOnDone's hook maintains)
// already include it.

import (
	"context"
	"errors"
	"math"
)

// Scope is a labelled, isolated submission namespace over a shared Runtime.
// Create one per tenant with Runtime.Scope or BoundedScope. Methods are safe
// for concurrent use; SetOnDone must be called before the first submission.
// As in Runtime, what every scoped task reads, what only its submitters
// write and what every finisher writes sit on cache lines of their own.
type Scope struct {
	rt   *Runtime
	name string
	// ns is the scope's namespace, unique on its runtime and never 0 (the
	// runtime's own): the ns field of every table key the scope's tasks use.
	ns uint64
	// onDone, when set, observes every scoped task's completion after the
	// scope's own accounting is settled.
	onDone func(err error)

	_ [cacheLine]byte
	// adm is the scope's namespace's admission lock.
	adm admission
	_   [cacheLine]byte
	// win is the scope's share of rt.win: used is its in-flight count, max
	// that count's high-water mark.
	win window
	tally
}

// Scope returns a new submission namespace on the runtime, with an unbounded
// share of the window. Every call makes a fresh namespace, fully isolated
// from every other scope and from the runtime's own keys even on identical
// addresses. The name is a label for diagnostics only: two Scope calls with
// the same name are two namespaces, not one.
func (rt *Runtime) Scope(name string) *Scope { return rt.BoundedScope(name, math.MaxInt) }

// BoundedScope is Scope with at most limit of the scope's tasks in flight:
// Submit and SubmitAll block while the scope is full, TrySubmitAll refuses.
// Like Scope, every call makes a fresh namespace whatever the name.
func (rt *Runtime) BoundedScope(name string, limit int) *Scope {
	s := &Scope{rt: rt, name: name, ns: rt.lastNS.Add(1)}
	s.win.limit = int64(limit)
	return s
}

// Name returns the scope's label.
func (s *Scope) Name() string { return s.name }

// SetOnDone registers a hook invoked with every scoped task's final error
// once the scope's accounting is settled and before the task's handle
// reports done, so a caller woken by the handle sees the hook's effects.
// It runs on the finishing worker and must not block. It must be called
// before the scope's first submission and at most once.
func (s *Scope) SetOnDone(fn func(err error)) { s.onDone = fn }

// taskDone settles the scope's side of one finished task, on the finishing
// worker. Its token goes back before the runtime's own: the scope never
// holds more of the shared window than the runtime has counted.
func (s *Scope) taskDone(o Outcome, err error) {
	s.record(o)
	s.win.release(1)
	if s.onDone != nil {
		s.onDone(err)
	}
}

// Submit submits one task through the scope: its keys live in the scope's
// namespace, and the scope's window and counters track the task's
// lifecycle. Semantics (and cost) otherwise match Runtime.Submit.
func (s *Scope) Submit(ctx context.Context, t Task) (*Handle, error) {
	return s.rt.submitOne(ctx, s, t)
}

// SubmitAll submits a batch through the scope with the same partial-prefix
// contract as Runtime.SubmitAll: on error the returned handles cover the
// admitted prefix, and the scope's window and counters cover exactly that
// prefix. The scope's tokens for the whole batch are taken first; a batch
// larger than a bounded scope's limit is an error. The caller's tasks are
// neither mutated nor copied (the runtime reads the Deps slices until their
// task finishes).
func (s *Scope) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) {
	if err := validate(tasks); err != nil {
		return nil, err
	}
	return s.rt.submit(ctx, ctx, s, tasks, nil, false)
}

// TrySubmitAll's refusals: the batch does not fit the runtime's window right
// now, or the scope's.
var (
	ErrWindowFull = errors.New("starss: in-flight window full")
	ErrScopeFull  = errors.New("starss: scope window full")
)

// TrySubmitAll is the admission that never waits: the whole batch is
// admitted, in order, or none of it is and no token is kept. It gives way
// to any submitter already blocked on either window, and tries the shared
// one first, so that a scope whose limit is the whole window hears
// ErrWindowFull, not ErrScopeFull, once it has filled both. The tasks slice
// is the caller's again once the call returns, untouched; the Deps slices
// belong to the runtime until their task finishes.
func (s *Scope) TrySubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) {
	if err := validate(tasks); err != nil {
		return nil, err
	}
	return s.rt.submit(ctx, ctx, s, tasks, nil, true)
}

// WaitOn blocks until every task previously submitted through the scope that
// accesses any of the given addresses has completed; see Runtime.WaitOn. The
// task it submits is the scope's: it takes a token of the scope's window
// too, and the scope's counters include it.
func (s *Scope) WaitOn(ctx context.Context, addrs ...uint64) error {
	return s.rt.waitOn(ctx, s, addrs)
}

// InFlight returns the scope's current submitted-but-unfinished count —
// the session window occupancy of the service layer.
func (s *Scope) InFlight() int64 { return s.win.count() }

// Stats returns the scope's own counters. Hazards is always zero: hazard
// detection happens inside the shared banks and is reported runtime-wide.
func (s *Scope) Stats() Stats {
	return Stats{TaskCounts: s.counts(), MaxInFlight: int(s.win.max.Load())}
}
