// Package obs is the runtime observability layer: a low-overhead event
// stream recording the task lifecycle the paper's hardware makes visible
// (submission into the Task Pool, dependence resolution, Get Inputs/Run
// Task on a worker, Handle Finished), an exporter to Chrome trace-viewer
// JSON for post-mortem timeline inspection, and a Prometheus-text-format
// encoder for the service's /metrics endpoint.
//
// The event layer is designed so the runtime pays a single nil check when
// it is disabled and one uncontended mutex acquisition on a per-worker ring
// buffer when it is enabled. Events are drained in bulk (Recorder.Drain)
// and post-processed offline — Temanejo (arXiv 1112.4604) attaches a
// debugger to a live StarSs runtime for the same reason: task-graph
// runtimes are opaque when they misbehave unless the runtime itself emits
// its lifecycle transitions.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Kind is one task lifecycle transition.
type Kind uint8

const (
	// KindSubmit records a task's admission: its ID is assigned and its
	// dependencies enter the dependence banks (the paper's Check Deps).
	KindSubmit Kind = iota
	// KindReady records a task's dependence count reaching zero: it leaves
	// the waiting state and queues for a worker (the Task Pool handoff).
	KindReady
	// KindRun records a worker starting the task (Get Inputs / Run Task).
	KindRun
	// KindFinish records the task's body completing — successfully or with
	// its own failure — and entering the Handle Finished path.
	KindFinish
	// KindPoison records a task skipped because a transitive dependency
	// failed: it occupied a worker only long enough to be classified.
	KindPoison
)

// String returns the lowercase event name used in exports.
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindReady:
		return "ready"
	case KindRun:
		return "run"
	case KindFinish:
		return "finish"
	case KindPoison:
		return "poison"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded lifecycle transition.
type Event struct {
	// Kind is the transition.
	Kind Kind
	// Task is the runtime's submission index — the task-ID analogue.
	Task uint64
	// Keys is the task's declared dependency-key count.
	Keys int
	// Bank is the first dependence-table bank the task's keys hash to, in
	// the sorted acquisition order; -1 for tasks with no dependencies.
	Bank int
	// Worker is the executing worker's index for run/finish/poison events;
	// -1 for transitions recorded outside a worker (submit, and ready
	// events resolved on the submit path).
	Worker int
	// TS is the event time in nanoseconds on the recorder's monotonic
	// clock (zero at recorder creation).
	TS int64
}

// ring is one fixed-capacity event buffer. The padding keeps adjacent
// rings' hot state on separate cache lines.
type ring struct {
	mu      sync.Mutex
	buf     []Event
	next    uint64 // events ever pushed; next%cap is the write slot
	dropped uint64 // events overwritten before a drain observed them
	_       [16]byte
}

// push appends one event, overwriting the oldest when the ring is full.
func (r *ring) push(ev Event) {
	r.mu.Lock()
	cap64 := uint64(len(r.buf))
	if r.next >= cap64 {
		r.dropped++
	}
	r.buf[r.next%cap64] = ev
	r.next++
	r.mu.Unlock()
}

// droppedCount returns the ring's cumulative overwrite count.
func (r *ring) droppedCount() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// drain moves the ring's retained events onto dst (oldest first) and
// resets the ring; the cumulative drop count is preserved.
func (r *ring) drain(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	cap64 := uint64(len(r.buf))
	n := r.next
	if n > cap64 {
		n = cap64
	}
	for i := r.next - n; i < r.next; i++ {
		dst = append(dst, r.buf[i%cap64])
	}
	r.next = 0
	return dst
}

// Recorder collects runtime events into per-lane ring buffers: one lane
// per worker so run/finish streams never contend, plus one extra lane for
// transitions recorded on the submit path. Emitting is safe from any
// goroutine on any lane; per-worker ordering is only guaranteed when each
// worker emits on its own lane.
type Recorder struct {
	start time.Time
	rings []ring
}

// NewRecorder returns a recorder with workers+1 lanes (lane `workers` is
// the submit-side lane) of capacity events each. Capacity below 16 is
// raised to 16.
func NewRecorder(workers, capacity int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if capacity < 16 {
		capacity = 16
	}
	r := &Recorder{start: time.Now(), rings: make([]ring, workers+1)}
	for i := range r.rings {
		r.rings[i].buf = make([]Event, capacity)
	}
	return r
}

// Lanes returns the number of lanes (workers + the submit-side lane).
func (r *Recorder) Lanes() int { return len(r.rings) }

// ExternalLane is the lane index for events recorded outside a worker.
func (r *Recorder) ExternalLane() int { return len(r.rings) - 1 }

// Now returns the recorder's monotonic clock reading in nanoseconds.
func (r *Recorder) Now() int64 { return int64(time.Since(r.start)) }

// Emit timestamps and records one transition on the given lane. A lane
// outside [0, Lanes) is clamped to the external lane.
func (r *Recorder) Emit(lane int, kind Kind, task uint64, keys, bank, worker int) {
	if lane < 0 || lane >= len(r.rings) {
		lane = len(r.rings) - 1
	}
	r.rings[lane].push(Event{
		Kind:   kind,
		Task:   task,
		Keys:   keys,
		Bank:   bank,
		Worker: worker,
		TS:     r.Now(),
	})
}

// Drain removes every retained event from all lanes and returns them
// merged, sorted by timestamp (ties broken by task then kind, so the
// result is deterministic for a fixed event set). Events overwritten
// before the drain are counted by Dropped.
func (r *Recorder) Drain() []Event {
	var out []Event
	for i := range r.rings {
		out = r.rings[i].drain(out)
	}
	SortEvents(out)
	return out
}

// Dropped returns the cumulative number of events overwritten before any
// drain observed them — nonzero means the rings were sized too small for
// the drain cadence.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for i := range r.rings {
		n += r.rings[i].droppedCount()
	}
	return n
}

// SortEvents orders events by (TS, Task, Kind, Worker) — the canonical
// deterministic order shared by Drain and the exporters.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Worker < b.Worker
	})
}
