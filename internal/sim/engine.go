// Package sim provides a deterministic discrete-event simulation kernel.
//
// It plays the role of the SystemC "Task Machine" used by the Nexus++ paper:
// hardware blocks are modeled as callbacks scheduled on a global event queue,
// bounded FIFOs provide the paper's FIFO lists with full/empty back-pressure,
// and Resource models finite hardware ports (for example the 32-bank
// off-chip memory). All ordering is deterministic: events fire in
// (time, insertion-sequence) order, so repeated runs of the same
// configuration produce bit-identical results.
package sim

import "fmt"

// Time is a simulated instant or duration in picoseconds. Picoseconds keep
// every latency in the paper (2 ns cycles, 4 ns bus words, 12 ns memory
// chunks, 30 ns preparation, microsecond tasks) an exact integer while
// leaving headroom for multi-second simulations (int64 picoseconds cover
// about 106 days).
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by (time, insertion sequence); sequence numbers are
// unique, so the order is total and the heap's shape cannot influence it.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the discrete-event simulation core. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	pq        []event // binary min-heap under event.before
	processed uint64
	running   bool
}

// NewEngine returns an empty engine positioned at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled-but-unexecuted events.
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would silently corrupt causality in a hardware model.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before current time %v", t, e.now))
	}
	e.seq++
	ev := event{at: t, seq: e.seq, fn: fn}
	// Sift up with a hole: parents move down until ev's place is found.
	e.pq = append(e.pq, ev)
	i := len(e.pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&e.pq[parent]) {
			break
		}
		e.pq[i] = e.pq[parent]
		i = parent
	}
	e.pq[i] = ev
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	top := e.pq[0]
	n := len(e.pq) - 1
	last := e.pq[n]
	e.pq[n] = event{} // drop the callback reference
	e.pq = e.pq[:n]
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root, again with a hole.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.pq[r].before(&e.pq[child]) {
			child = r
		}
		if !e.pq[child].before(&last) {
			break
		}
		e.pq[i] = e.pq[child]
		i = child
	}
	e.pq[i] = last
	return top
}

// After schedules fn to run d after the current time. Negative delays panic.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	return e.RunUntil(Time(1<<62 - 1))
}

// RunUntil executes events with timestamps <= limit, leaves later events
// queued, and returns the time of the last executed event (or the current
// time if nothing ran). It panics when called reentrantly from an event.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: RunUntil called from inside an event callback")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.pq) > 0 {
		if e.pq[0].at > limit {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.processed++
		ev.fn()
	}
	return e.now
}
