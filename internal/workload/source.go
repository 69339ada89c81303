// Package workload generates the task streams used to evaluate Nexus++:
// the four dependency patterns of the paper's Figure 4 (H.264 wavefront,
// horizontal chains, vertical chains, independent tasks) and the Gaussian
// elimination with partial pivoting task graph of Figure 5 / Table II.
//
// Sources are streaming: a Gaussian run for a 5000x5000 matrix contains
// 12,502,499 tasks, so generators produce TaskSpecs on demand in submission
// order instead of materialising the whole trace.
package workload

import (
	"fmt"

	"nexuspp/internal/trace"
)

// Source produces tasks in submission order. It is the feed consumed by
// every master-core model in this repository.
type Source interface {
	// Name identifies the workload for reports.
	Name() string
	// Total returns the number of tasks the source will produce.
	Total() int
	// Next returns the next task in submission order; ok is false after the
	// last task. Each spec's Params is its own: the caller may keep it, and
	// no later Next or Reset writes to it. The generators here hand it out
	// with len == cap, so an append by the caller copies it.
	Next() (t trace.TaskSpec, ok bool)
	// Reset rewinds the source to the first task, reproducing the identical
	// stream (generators reseed their PRNGs).
	Reset()
}

// paramSlabLen is how many parameters one slab holds: a generator makes
// one allocation per paramSlabLen parameters instead of one per task.
const paramSlabLen = 1024

// paramSlab carves task parameter lists out of shared blocks. Each list is
// a fresh slab[:0:n] that the generator fills with exactly n parameters, so
// len == cap and an append by a consumer never reaches the next task's
// list. The slab only moves forward, Reset included, so no spec a consumer
// still holds ever shares memory with a later one.
type paramSlab []trace.Param

// take returns an empty list with room for exactly n parameters.
func (s *paramSlab) take(n int) []trace.Param {
	if len(*s) < n {
		*s = make([]trace.Param, max(n, paramSlabLen))
	}
	p := (*s)[:0:n]
	*s = (*s)[n:]
	return p
}

// traceSource replays an in-memory trace.
type traceSource struct {
	tr  *trace.Trace
	pos int
}

// FromTrace returns a Source replaying tr in order.
func FromTrace(tr *trace.Trace) Source { return &traceSource{tr: tr} }

func (s *traceSource) Name() string { return s.tr.Name }
func (s *traceSource) Total() int   { return len(s.tr.Tasks) }
func (s *traceSource) Reset()       { s.pos = 0 }

func (s *traceSource) Next() (trace.TaskSpec, bool) {
	if s.pos >= len(s.tr.Tasks) {
		return trace.TaskSpec{}, false
	}
	t := s.tr.Tasks[s.pos]
	s.pos++
	return t, true
}

// Collect materialises a source into a Trace (the source is Reset first and
// left exhausted). Intended for tests and small workloads; do not call it
// on multi-million-task Gaussian sources.
func Collect(s Source) *trace.Trace {
	s.Reset()
	tr := &trace.Trace{Name: s.Name()}
	if n := s.Total(); n > 0 {
		tr.Tasks = make([]trace.TaskSpec, 0, n)
	}
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		tr.Tasks = append(tr.Tasks, t)
	}
	return tr
}

// CheckExhaustive verifies that a source produces exactly Total tasks with
// sequential IDs and valid specs. It is shared by the test suites.
func CheckExhaustive(s Source) error {
	s.Reset()
	n := 0
	for {
		t, ok := s.Next()
		if !ok {
			break
		}
		if t.ID != uint64(n) {
			return fmt.Errorf("workload %s: task %d has ID %d", s.Name(), n, t.ID)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("workload %s: %v", s.Name(), err)
		}
		n++
	}
	if n != s.Total() {
		return fmt.Errorf("workload %s: produced %d tasks, Total() = %d", s.Name(), n, s.Total())
	}
	if _, ok := s.Next(); ok {
		return fmt.Errorf("workload %s: Next() produced a task after exhaustion", s.Name())
	}
	return nil
}
