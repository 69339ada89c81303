package core

import (
	"fmt"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// TaskPool is the Task Maestro's main task storage (paper Table I). Every
// task is identified by the index of its descriptor, so no table is ever
// searched. Tasks whose parameter list exceeds one descriptor chain dummy
// descriptors: the parent keeps MaxParamsPerTD-1 parameters plus a pointer,
// and each following dummy keeps up to MaxParamsPerTD-1 parameters plus a
// pointer (the final one may use all MaxParamsPerTD slots).
type TaskPool struct {
	entries   []tpEntry
	free      *sim.FIFO[int32]
	maxParams int

	// Statistics.
	dummyTDs     uint64
	maxOccupancy int
	occupancy    int
	allocated    uint64
}

type tpEntry struct {
	live    bool
	isDummy bool
	// checking is the paper's busy flag: while the Check Deps block is
	// processing this descriptor, the Handle Finished block must not
	// schedule it even if its dependence counter reaches zero.
	checking bool
	parent   int32
	spec     trace.TaskSpec
	dc       int     // Dependence Counter
	extra    []int32 // chained dummy descriptor indices (nD = len(extra))
	// versions binds each parameter to the Dependence Table entry it was
	// granted (renaming mode only; parallel to spec.Params). Alloc and Free
	// keep its storage, as the Dependence Table keeps its kick-off lists.
	versions []int32
}

// NewTaskPool returns a pool with the given descriptor count.
func NewTaskPool(entries, maxParamsPerTD int) *TaskPool {
	tp := &TaskPool{
		entries:   make([]tpEntry, entries),
		free:      sim.NewFIFO[int32]("tp-free-indices", entries),
		maxParams: maxParamsPerTD,
	}
	for i := 0; i < entries; i++ {
		tp.free.MustPush(int32(i))
	}
	return tp
}

// NumTDs returns the number of descriptors a task with nParams parameters
// occupies given the per-descriptor capacity.
func NumTDs(nParams, maxPerTD int) int {
	if nParams <= maxPerTD {
		return 1
	}
	// The parent holds maxPerTD-1 parameters plus a pointer; every
	// following descriptor does the same until the remainder fits whole.
	n := 1
	rem := nParams - (maxPerTD - 1)
	for rem > maxPerTD {
		rem -= maxPerTD - 1
		n++
	}
	return n + 1
}

// Capacity returns the total descriptor count.
func (tp *TaskPool) Capacity() int { return tp.free.Cap() }

// FreeCount returns the number of free descriptors.
func (tp *TaskPool) FreeCount() int { return tp.free.Len() }

// Occupancy returns the number of live descriptors.
func (tp *TaskPool) Occupancy() int { return tp.occupancy }

// MaxOccupancy returns the highest descriptor occupancy observed.
func (tp *TaskPool) MaxOccupancy() int { return tp.maxOccupancy }

// DummyTDs returns how many dummy descriptors have been chained so far.
func (tp *TaskPool) DummyTDs() uint64 { return tp.dummyTDs }

// Allocated returns the number of tasks stored so far.
func (tp *TaskPool) Allocated() uint64 { return tp.allocated }

// OnFree registers a callback invoked whenever descriptors are returned,
// used by the Write TP block to retry a stalled allocation.
func (tp *TaskPool) OnFree(fn func()) { tp.free.OnData(fn) }

// NeededTDs returns the descriptor count spec would occupy.
func (tp *TaskPool) NeededTDs(spec *trace.TaskSpec) int {
	return NumTDs(len(spec.Params), tp.maxParams)
}

// Alloc stores spec and returns its task ID (the parent descriptor index).
// ok is false when the pool lacks enough free descriptors; nothing is
// mutated in that case and the caller should retry via OnFree. Alloc panics
// if the task can never fit (more descriptors than the pool holds), which
// mirrors the paper's note that the parameter count remains bounded by the
// Task Pool size.
func (tp *TaskPool) Alloc(spec trace.TaskSpec) (id int32, ok bool) {
	need := tp.NeededTDs(&spec)
	if need > tp.Capacity() {
		panic(fmt.Sprintf("core: task %d needs %d descriptors, Task Pool holds only %d",
			spec.ID, need, tp.Capacity()))
	}
	if tp.free.Len() < need {
		return 0, false
	}
	parent, _ := tp.free.Pop()
	e := &tp.entries[parent]
	*e = tpEntry{live: true, spec: spec, parent: parent, versions: e.versions[:0]}
	for i := 1; i < need; i++ {
		idx, _ := tp.free.Pop()
		tp.entries[idx] = tpEntry{live: true, isDummy: true, parent: parent}
		e.extra = append(e.extra, idx)
		tp.dummyTDs++
	}
	tp.allocated++
	tp.occupancy += need
	if tp.occupancy > tp.maxOccupancy {
		tp.maxOccupancy = tp.occupancy
	}
	return parent, true
}

// Entry returns the live parent entry for id; it panics on a dead or dummy
// index, which would indicate a model bug (the paper's busy flag guards the
// same invariant in hardware).
func (tp *TaskPool) Entry(id int32) *tpEntry {
	e := &tp.entries[id]
	if !e.live || e.isDummy {
		panic(fmt.Sprintf("core: Task Pool access to dead or dummy entry %d", id))
	}
	return e
}

// Spec returns the stored descriptor of task id.
func (tp *TaskPool) Spec(id int32) *trace.TaskSpec { return &tp.Entry(id).spec }

// DC returns the task's dependence counter.
func (tp *TaskPool) DC(id int32) int { return tp.Entry(id).dc }

// AddDC adjusts the task's dependence counter by delta and returns the new
// value.
func (tp *TaskPool) AddDC(id int32, delta int) int {
	e := tp.Entry(id)
	e.dc += delta
	if e.dc < 0 {
		panic(fmt.Sprintf("core: task %d dependence counter went negative", id))
	}
	return e.dc
}

// Free deletes task id and returns all of its descriptors (parent plus
// dummies) to the free-indices list.
func (tp *TaskPool) Free(id int32) {
	e := tp.Entry(id)
	n := 1 + len(e.extra)
	for _, idx := range e.extra {
		tp.entries[idx] = tpEntry{}
		tp.free.MustPush(idx)
	}
	*e = tpEntry{versions: e.versions[:0]}
	tp.free.MustPush(id)
	tp.occupancy -= n
}
