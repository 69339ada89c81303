package sim

// Resource is a counting semaphore with FIFO-fair waiters. It models finite
// hardware ports: the Nexus++ evaluation bounds off-chip memory to 32
// concurrent accessors (one per bank port), and Resource reproduces exactly
// that "no more than N tasks can access the memory at a given time" rule.
type Resource struct {
	name  string
	cap   int
	inUse int

	// Waiters queue in a ring that doubles when full (its length stays a
	// power of two), so a grant pops in constant time however deep the
	// queue runs.
	waiters []func()
	head    int // index of the oldest waiter
	waiting int

	// Statistics.
	acquires  uint64
	waits     uint64
	highWater int
}

// NewResource returns a resource with the given number of slots.
func NewResource(name string, slots int) *Resource {
	if slots < 1 {
		panic("sim: Resource needs at least one slot: " + name)
	}
	return &Resource{name: name, cap: slots}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Cap returns the number of slots.
func (r *Resource) Cap() int { return r.cap }

// InUse returns the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiters.
func (r *Resource) QueueLen() int { return r.waiting }

// HighWater returns the maximum concurrent holders observed.
func (r *Resource) HighWater() int { return r.highWater }

// Acquires returns the number of successful acquisitions.
func (r *Resource) Acquires() uint64 { return r.acquires }

// Waits returns how many acquisitions had to queue first.
func (r *Resource) Waits() uint64 { return r.waits }

// Acquire invokes granted as soon as a slot is free — immediately
// (synchronously) when one is available, otherwise when a holder releases.
// Grant order is strictly FIFO.
func (r *Resource) Acquire(granted func()) {
	if r.inUse < r.cap {
		r.take()
		granted()
		return
	}
	r.waits++
	if r.waiting == len(r.waiters) {
		grown := make([]func(), max(8, 2*len(r.waiters)))
		n := copy(grown, r.waiters[r.head:])
		copy(grown[n:], r.waiters[:r.head])
		r.waiters, r.head = grown, 0
	}
	r.waiters[(r.head+r.waiting)&(len(r.waiters)-1)] = granted
	r.waiting++
}

// TryAcquire takes a slot if one is free and returns whether it did.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.cap {
		r.take()
		return true
	}
	return false
}

func (r *Resource) take() {
	r.inUse++
	r.acquires++
	if r.inUse > r.highWater {
		r.highWater = r.inUse
	}
}

// Release frees one slot and synchronously grants the oldest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire on " + r.name)
	}
	r.inUse--
	if r.waiting > 0 {
		next := r.waiters[r.head]
		r.waiters[r.head] = nil
		r.head = (r.head + 1) & (len(r.waiters) - 1)
		r.waiting--
		r.take()
		next()
	}
}
