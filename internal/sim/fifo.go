package sim

// FIFO is a bounded first-in first-out queue modeling the hardware FIFO
// lists of the Nexus++ Task Maestro (TDs Sizes, New Tasks, TP Free Indices,
// Global Ready Tasks, Worker Cores IDs, CiRdyTasks, CiFinTasks, ...).
//
// Pushing into a full FIFO fails, which the producer block turns into a
// stall; the paper's 1-bit "list written" events are modeled with the
// OnData/OnSpace subscriber callbacks, which fire (in the same event-queue
// step) whenever the FIFO transitions or stays relevant for a waiting block.
// Callbacks are invoked synchronously; blocks are written so that re-entrant
// kicks are cheap no-ops when they are busy.
type FIFO[T any] struct {
	name    string
	buf     []T // ring of len == capacity, allocated once
	head    int // index of the oldest item
	n       int // queued items
	onData  []func()
	onSpace []func()

	// Statistics.
	pushes     uint64
	fullStalls uint64
	highWater  int
}

// NewFIFO returns an empty FIFO with the given capacity. Capacity must be
// at least 1.
func NewFIFO[T any](name string, capacity int) *FIFO[T] {
	if capacity < 1 {
		panic("sim: FIFO capacity must be >= 1: " + name)
	}
	return &FIFO[T]{name: name, buf: make([]T, capacity)}
}

// Name returns the FIFO's diagnostic name.
func (f *FIFO[T]) Name() string { return f.name }

// Cap returns the configured capacity.
func (f *FIFO[T]) Cap() int { return len(f.buf) }

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return f.n }

// Full reports whether a Push would fail.
func (f *FIFO[T]) Full() bool { return f.n == len(f.buf) }

// Empty reports whether a Pop would fail.
func (f *FIFO[T]) Empty() bool { return f.n == 0 }

// HighWater returns the maximum occupancy ever observed.
func (f *FIFO[T]) HighWater() int { return f.highWater }

// Pushes returns the total number of successful pushes.
func (f *FIFO[T]) Pushes() uint64 { return f.pushes }

// FullStalls returns how many Push attempts failed because the FIFO was full.
func (f *FIFO[T]) FullStalls() uint64 { return f.fullStalls }

// OnData registers a callback invoked after every successful Push.
// It models a 1-bit "list written" event wire.
func (f *FIFO[T]) OnData(fn func()) { f.onData = append(f.onData, fn) }

// OnSpace registers a callback invoked after every successful Pop.
// It models the wire a stalled producer watches to resume.
func (f *FIFO[T]) OnSpace(fn func()) { f.onSpace = append(f.onSpace, fn) }

// Push appends v and returns true, or returns false if the FIFO is full.
func (f *FIFO[T]) Push(v T) bool {
	if f.Full() {
		f.fullStalls++
		return false
	}
	tail := f.head + f.n
	if tail >= len(f.buf) {
		tail -= len(f.buf)
	}
	f.buf[tail] = v
	f.n++
	f.pushes++
	if f.n > f.highWater {
		f.highWater = f.n
	}
	for _, fn := range f.onData {
		fn()
	}
	return true
}

// MustPush panics if the FIFO is full. Use it for FIFOs whose sizing
// guarantees (token schemes) make overflow a model bug rather than a stall.
func (f *FIFO[T]) MustPush(v T) {
	if !f.Push(v) {
		panic("sim: FIFO overflow on " + f.name)
	}
}

// Pop removes and returns the oldest item; ok is false when empty.
func (f *FIFO[T]) Pop() (v T, ok bool) {
	if f.Empty() {
		return v, false
	}
	v = f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.n--
	for _, fn := range f.onSpace {
		fn()
	}
	return v, true
}

// Peek returns the oldest item without removing it.
func (f *FIFO[T]) Peek() (v T, ok bool) {
	if f.Empty() {
		return v, false
	}
	return f.buf[f.head], true
}
