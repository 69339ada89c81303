// Package starss is a real, executing StarSs-style task-dataflow runtime
// for Go whose scheduler is the Nexus++ dependency-resolution algorithm.
//
// Tasks are Go closures annotated with the data they read and write: In,
// Out and InOut dependencies on base addresses — a Nexus++ task descriptor's
// parameter list, a direction per address. The runtime discovers RAW
// dependencies and enforces WAR/WAW hazards without renaming — exactly the
// semantics of the paper's Dependence Table: concurrent readers share a
// segment, a writer waits for all previous readers ("a writer waits" flag),
// and waiters queue in per-segment kick-off lists released by the
// handle-finished path.
//
// Every submission returns a *Handle — the software analogue of the task ID
// Nexus++ assigns in hardware and tracks from Check Deps through Handle
// Finished. A handle exposes the task's completion channel, its final error,
// and its resolved name and submission index. Task bodies are
// context-aware functions that may fail: a task that returns an error,
// panics, or is cancelled poisons its transitive dependents — they are
// skipped (never run), their handles report ErrDependencyFailed wrapping the
// root cause, and the kick-off lists still drain, so a failure never wedges
// the in-flight window.
//
// Dependency state is sharded into lock-striped banks hashed by key — the
// software analogue of the multiple Dependence Table banks of the Nexus++
// hardware — so independent keys resolve concurrently on both the Submit
// and the handle-finished path instead of funnelling through a single
// resolver goroutine. Check Deps runs a whole admission chunk at a time: it
// sorts the chunk's keys by bank and locks each bank once, in ascending
// order, filing that bank's keys in program order, under its namespace's
// admission lock, which orders a namespace's concurrent submitters chunk by
// chunk. Handle Finished takes no bank lock for an access that frees no
// waiter: a segment's holder state is one atomic word, and an executed task
// gives up such an access with one compare-and-swap — the last holder marks
// the segment retired and leaves it filed, for the key's next task to
// restart in place or for a sweep to take back to the bank's free list. It
// locks, in ascending order, only the banks of the accesses that must
// release a waiter, or every bank of a failed or skipped task, which poisons
// what it releases. Each key is hashed once in a task's life (hashKey) and
// probed for once, by Check Deps — the task keeps, per dependency, the
// segment Check Deps found or filed, Handle Finished follows those pointers,
// and a segment's kick-off list is threaded through the waiting tasks
// themselves. The table is keyed as the paper's is, by
// address: a bank files its keys, {namespace, address} pairs, in one
// open-addressed table of its own (table.go), and the namespace — 0 for the
// runtime, one per Scope — is a field of the key, never a wrapper around
// it. NewMaestro (maestro.go) builds the same runtime with that single
// resolver goroutine put back, as the baseline the banks are measured
// against.
//
// The in-flight window — the paper's Task Pool size — is one atomic counter
// that both admits and reports (window.go): a SubmitAll chunk reserves its
// tokens with one compare-and-swap, a finisher returns one with one atomic
// add, and only a full window parks the submitter on a FIFO wait list. A
// ready task reaches a worker through the runtime's own ready queue
// (ready.go) — a ring of Window slots under one lock, which SubmitAll feeds
// up to 32 tasks at a time and which wakes a worker only when one is parked —
// or not through any queue: the worker that finishes a task runs the first
// successor it released itself, for a bounded run. No task costs a channel
// operation. Every admission is a chunk of up to 256 tasks. Submit and
// WaitOn are chunks of one, which allocate their node and their handle; a
// larger chunk takes its nodes from a node block a drained chunk left on the
// runtime's free list and carves its handles out of one new block, so a
// batch costs that handle block and the handle slice it returns, nothing per
// task (TestSubmitAllocations, TestScopeSubmitAllocations: go test -run
// Allocations ./internal/starss). The free list holds its blocks strongly
// while tasks are in flight and only weakly once the runtime is idle: an
// idle runtime keeps none past the next collection (TestNodeBlock*).
//
// A task has one body, Task.Do. The paper's Task Controllers copy a task's
// inputs into a worker core's private memory before it runs (Get Inputs) and
// its outputs back after (Put Outputs); a Go worker shares memory with the
// submitter, so a body reads and writes its data in place. Those phases, and
// the double buffering that overlaps them, are modelled and measured in
// internal/core.
//
// The paper's conclusion notes that parts of Nexus++ "can be reused for
// other programming models"; this package is that reuse, in library form.
package starss

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"weak"

	"nexuspp/internal/obs"
	"nexuspp/internal/trace"
)

// Mode is a dependency direction: the access mode of a traced parameter,
// whose String is the pragma spelling.
type Mode = trace.AccessMode

const (
	// ModeIn marks data the task only reads.
	ModeIn = trace.In
	// ModeOut marks data the task only writes.
	ModeOut = trace.Out
	// ModeInOut marks data the task reads and writes.
	ModeInOut = trace.InOut
)

// Dep declares one data access of a task: an entry of a Nexus++ task
// descriptor's parameter list, the base address of the data and the
// direction of the access. The address is the Dependence Table key.
type Dep struct {
	Addr uint64
	Mode Mode
}

// In declares a read-only dependency on the data at addr.
func In(addr uint64) Dep { return Dep{addr, ModeIn} }

// Out declares a write-only dependency on the data at addr.
func Out(addr uint64) Dep { return Dep{addr, ModeOut} }

// InOut declares a read-write dependency on the data at addr.
func InOut(addr uint64) Dep { return Dep{addr, ModeInOut} }

// Task is a unit of work with declared dependencies.
type Task struct {
	// Name is optional and used in diagnostics and Handle.Name.
	Name string
	// Deps declares the data the task accesses. Duplicate addresses are
	// merged (read + write on the same address becomes inout). The runtime
	// reads the slice until the task's handle reports done: do not modify it
	// before then.
	Deps []Dep
	// Do executes the task. The context is the one the task was submitted
	// with; bodies should honour its cancellation. A non-nil error marks
	// the task failed and poisons its transitive dependents. Called once
	// (Retry wraps it for more). Required (only WaitOn admits a task
	// without one: see dispatch).
	Do func(ctx context.Context) error
}

// tableKey is the Dependence Table key of a parameter's base address: the
// address and the namespace (the master core's address space) it belongs
// to. The segment it files keeps it.
type tableKey struct{ ns, addr uint64 }

// Config parameterises a Runtime.
type Config struct {
	// Workers is the number of worker goroutines; 0 selects GOMAXPROCS.
	Workers int
	// Window bounds the number of in-flight (submitted, unfinished) tasks,
	// the analogue of the Task Pool size; Submit blocks when it is full,
	// and blocked submitters are served in arrival order. 0 selects 1024.
	Window int
	// EventBuffer enables the lifecycle event stream (submit/ready/run/
	// finish/poison) and sets the per-lane ring capacity; 0 (the default)
	// disables it, leaving a single nil check on every emission point.
	// Drain the stream via Events.
	EventBuffer int
	// BankCounters enables per-bank lock instrumentation (acquisitions,
	// contended acquisitions, max kick-off queue depth), surfaced through
	// Stats. Off by default: the counting replaces the plain bank Lock with
	// a TryLock-then-Lock pair on every acquisition. On the admission side
	// an acquisition is one bank of one chunk, not one bank of one task; on
	// the finish side only the banks Handle Finished locks count, and an
	// access it gives up without the lock counts none.
	BankCounters bool
}

// Stats reports runtime counters; the JSON keys are the service's.
type Stats struct {
	TaskCounts
	// MaxInFlight is the high-water mark of submitted-but-unfinished tasks;
	// it never exceeds Config.Window (for a Scope, its own limit).
	MaxInFlight int `json:"max_in_flight"`
	// Hazards counts tasks that had to wait at least once (DC > 0).
	Hazards uint64 `json:"hazards"`
	// BankAcquisitions counts dependence-bank lock acquisitions — one per
	// bank of each admission chunk, and one per bank a finished task locks:
	// those of its accesses that release a waiter, or all of a failed or
	// skipped task's; zero unless Config.BankCounters is set.
	BankAcquisitions uint64 `json:"bank_acquisitions"`
	// BankContended counts the subset of BankAcquisitions that had to
	// block because another goroutine held the bank.
	BankContended uint64 `json:"bank_contended"`
	// BankMaxQueue is the high-water mark of any single segment's kick-off
	// list — the deepest dependence queue observed on any bank.
	BankMaxQueue uint64 `json:"bank_max_queue"`
}

// String renders the counters in one line, for reports and logs.
func (s Stats) String() string {
	return fmt.Sprintf(
		"submitted=%d executed=%d failed=%d skipped=%d hazards=%d max-in-flight=%d",
		s.Submitted, s.Executed, s.Failed, s.Skipped, s.Hazards, s.MaxInFlight)
}

// Handle tracks one submitted task — the software analogue of the task ID
// the Nexus++ hardware assigns at submission and tracks through Handle
// Finished: the ID, the name, and how the task ended, 32 bytes in all.
// Handles are returned by Submit/SubmitAll and stay valid after the runtime
// is closed.
type Handle struct {
	index uint64
	name  string // Task.Name; empty for a nameless task
	// end is nil while the task is pending, and the task's end is published
	// by one pointer swap (complete): okEnd for a task that executed, an end
	// cell of its own for one that failed or was skipped. Before that, a
	// Done caller may install a pending cell, whose channel complete closes.
	// Most handles are never selected on, so that channel is made lazily (as
	// context.cancelCtx does), and an ok end allocates nothing. index and
	// name are written once, at admission.
	end atomic.Pointer[endCell]
}

// endCell is how a task ended and the channel that says it has. A pending
// cell (made by Done) has an open channel and the zero outcome, Pending; a
// final cell is never written after it is published.
type endCell struct {
	ch      chan struct{}
	outcome Outcome
	err     error
}

// closedChan is the channel every final end cell shares.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// okEnd is the end cell every task that executed shares.
var okEnd = &endCell{ch: closedChan, outcome: Executed}

// finished reports whether the task's end is published; from then on the
// handle's end cell does not change.
func (h *Handle) finished() bool { return h.Outcome() != Pending }

// Done returns a channel closed when the task completes: executed, failed,
// or skipped because a dependency failed. Every call returns a channel that
// is (or will be) closed, whether it is first requested before or after the
// task finished.
func (h *Handle) Done() <-chan struct{} {
	if c := h.end.Load(); c != nil {
		return c.ch
	}
	c := &endCell{ch: make(chan struct{})}
	if h.end.CompareAndSwap(nil, c) {
		return c.ch
	}
	// Lost to another Done call or to complete; either left a channel.
	return h.end.Load().ch
}

// Err returns the task's final status: nil while the task is still pending
// or after success; the body's error (or panic, or cancellation cause) on
// failure; an error wrapping ErrDependencyFailed and the root cause when
// the task was skipped.
func (h *Handle) Err() error {
	if c := h.end.Load(); c != nil {
		return c.err // nil in a pending cell
	}
	return nil
}

// Outcome reports how the task ended, as the runtime classified it and
// counted it, or Pending while it has not.
func (h *Handle) Outcome() Outcome {
	if c := h.end.Load(); c != nil {
		return c.outcome // Pending in a pending cell
	}
	return Pending
}

// Index is the task's submission index, assigned in admission order — the
// task-ID analogue. Within a namespace it is the order Check Deps saw the
// tasks in (on the maestro, the order their submitters numbered them).
func (h *Handle) Index() uint64 { return h.index }

// Name is the task's resolved name: Task.Name, or "task<index>" when the
// task was submitted nameless (formatted on demand, not at admission).
func (h *Handle) Name() string {
	if h.name != "" {
		return h.name
	}
	return "task" + strconv.FormatUint(h.index, 10)
}

// Wait blocks until the task completes or ctx is cancelled, returning the
// task's final error or ctx.Err(). A nil ctx means context.Background().
func (h *Handle) Wait(ctx context.Context) error {
	if h.finished() {
		return h.Err()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-h.Done():
		return h.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// complete publishes the task's end in one pointer swap: o and err are
// visible to any reader that observes the handle finished, and so is
// everything the finishing worker did before the call. An executed task
// publishes the shared okEnd and allocates nothing; a failed or skipped one,
// whose error was formatted on its way here, allocates its own cell.
func (h *Handle) complete(o Outcome, err error) {
	c := okEnd
	if o != Executed {
		c = &endCell{ch: closedChan, outcome: o, err: err}
	}
	if p := h.end.Swap(c); p != nil {
		close(p.ch)
	}
}

// bank is one lock-striped slice of the dependence table, sized to exactly
// 64 bytes so adjacent hot bank locks sit on separate cache lines. The
// counters are only written when Config.BankCounters is set
// (acquisitions/contended under TryLock knowledge, maxQueue under the bank
// lock) but are always read atomically by Stats.
type bank struct {
	mu sync.Mutex
	// table files the bank's segments, live and retired (table.go).
	table *addrTable
	// free lists nfree swept segments for reuse (linked through
	// segState.nextFree), guarded by mu like the table. It is bounded
	// (Runtime.segFree) because an idle runtime keeps it: an unbounded list
	// would pin a burst's worth of segments for the runtime's life.
	free  *segState
	nfree int
	// filed counts the segments takeSeg filed since the table was last swept.
	filed        int32
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	maxQueue     atomic.Uint64
}

// segFreeMin is the least a bank's free list may hold.
const segFreeMin = 64

// takeSeg returns an empty segment for key k, whose hash is h, and files it
// in slot at of the bank's table, where a find of k just missed it; keep
// bounds the free list (recycle). The caller holds b.mu.
//
// Finishers retire segments without the lock and leave them filed, so this
// is where they leave the table (sweep): when the free list is empty and the
// table has had a sixteenth of its slots' worth of segments filed since the
// last sweep — a sweep reads every slot, and a table filling with keys
// still in flight must not read them all again for every key — and when the
// load passes ½, where the table grows only if the sweep left it above ⅓.
func (b *bank) takeSeg(k tableKey, h uint64, at int, keep int) *segState {
	t := b.table
	if b.free == nil && 16*int(b.filed) >= len(t.slots) {
		b.sweep(keep)
		_, at = t.find(h, k) // the sweep moved the slots
	}
	seg := b.free
	if seg != nil {
		b.free, seg.nextFree = seg.nextFree, nil
		b.nfree--
	} else {
		seg = &segState{}
	}
	seg.key, seg.hash = k, h
	t.put(at, seg)
	b.filed++
	if 2*t.count > len(t.slots) {
		b.sweep(keep)
		if 3*t.count > len(t.slots) {
			t.grow()
		}
	}
	return seg
}

// sweep takes the bank's retired segments out of its table and recycles
// them. The caller holds b.mu.
func (b *bank) sweep(keep int) {
	b.table.sweep(func(seg *segState) { b.recycle(seg, keep) })
	b.filed = 0
}

// recycle lists a segment that left the table free, unless the free list
// already holds keep segments. The caller holds b.mu. A retired segment's
// kick-off list is empty, so the free list pins no task, and the reset
// leaves nothing of the key it served.
func (b *bank) recycle(seg *segState, keep int) {
	if b.nfree >= keep {
		return
	}
	*seg = segState{nextFree: b.free}
	b.free = seg
	b.nfree++
}

// Runtime schedules and executes tasks. Its fields are grouped by who writes
// them, each group on cache lines of its own: first the words set at
// construction that every task only reads, then the admission lock, which
// only submitters write, then the window, the ready queue and the counters,
// which finishing workers write on every task. A finisher's write to a line
// Check Deps reads would make the submitter fetch that line again on every
// task (TestHotWordsOwnCacheLines).
type Runtime struct {
	cfg   Config
	banks []bank
	mask  uint64
	// segFree bounds each bank's free list at twice the bank's share of a
	// full window, and at least segFreeMin. The in-flight count swings
	// between empty and full many times in a long run, and a list smaller
	// than the live segments of a full window turns every swing into garbage
	// on the way down and allocations on the way up. A task files up to one
	// segment per key, not per task: on the bench/ rt_* shapes (Window 4096,
	// then 8 banks) a bank's peak was 550–616 live segments, up to 1.2 times
	// its share of 512, and wavefront tasks hold three keys. An idle runtime
	// keeps what the lists hold, at most segFree × 80 B × banks: the larger of
	// 2 × Window × 80 B — 40 MiB for the service's largest derived window of
	// 1<<18 — and segFreeMin × 80 B × banks, 320 KiB at 64 banks; and only
	// once that many segments were live at once.
	segFree int
	// seed is hashKey's three secret words, drawn per runtime (newSeed).
	seed [3]uint64
	// rec is the lifecycle event stream (nil unless Config.EventBuffer is
	// set); bankStats gates the per-bank lock counters. Both are fixed at
	// construction, so emission points pay one predictable branch.
	rec       *obs.Recorder
	bankStats bool
	// funnel, when non-nil (NewMaestro), is the one goroutine that performs
	// every Check Deps and Handle Finished: admit and runBody hand it their
	// nodes instead of resolving in place.
	funnel *funnel
	// stopped is closed by Close, once the window is shut, to wake submitters
	// queued on a full window — the runtime's or a scope's — with ErrStopped.
	// Whether the runtime is stopped is the window's to say (win.isShut).
	stopped chan struct{}

	_ [cacheLine]byte
	// adm is the runtime's own namespace's admission lock (a Scope has its
	// own).
	adm   admission
	_     [cacheLine]byte
	win   window
	_     [cacheLine]byte
	ready readyQueue
	_     [cacheLine]byte
	tally
	hazards  atomic.Uint64
	firstErr atomic.Pointer[taskFailure]
	_        [cacheLine]byte

	// blocks lists the drained SubmitAll node blocks, by class.
	blocks   [blockClasses]blockList
	stopOnce sync.Once
	workerWG sync.WaitGroup

	// lastNS is the namespace of the newest Scope; 0 is the runtime's own.
	lastNS atomic.Uint64

	// coord guards idleCh, the barrier every Wait and Close parks on: made by
	// the first of them to find tasks in flight, closed and dropped by the
	// finisher that returns the last token. The token-return path takes coord
	// only when in-flight hits zero, so it stays off the steady-state hot path.
	// It also guards swept, the submitted count when settle last swept the
	// banks.
	coord  sync.Mutex
	idleCh chan struct{}
	swept  uint64
}

// cacheLine is the padding that keeps a group of Runtime or Scope fields
// off its neighbours' cache lines: whatever the allocation's alignment, no
// line holds bytes of two groups.
const cacheLine = 64

// taskFailure is the boxed root-cause record behind firstErr and every
// poison mark: a failed task's is made once and shared by the segments it
// poisons and the dependents they taint.
type taskFailure struct {
	err error
}

// inlineDeps is the dependency count up to which a node's per-dependency
// slots live inside the node itself.
const inlineDeps = 4

// access is a task's hold on one dependency — the paper's Task Pool entry
// carrying its own Dependence Table linkage. seg is the segment Check Deps
// found or created for the key, so Handle Finished follows the pointer and
// never looks the key up again. While the task waits in that segment's
// kick-off list, next is the task queued behind it: the list is threaded
// through its waiters and costs no memory of its own.
type access struct {
	seg  *segState
	next *taskNode
}

// spilled holds the per-dependency slots of a task with more than inlineDeps
// dependencies.
type spilled struct {
	acc      []access
	nextSlot []int32
	// order is room for the bank order Handle Finished derives (holds), so
	// that it costs such a task no allocation.
	order []int32
}

// taskNode is a task's slot in the Task Pool: an entry of its chunk's node
// block, or an allocation of its own for a chunk of one (admitAll). It is
// zeroed when the task finishes (resolveFinished).
type taskNode struct {
	// task is the submitted task; task.Deps is normalised (no duplicate
	// keys) by admitAll.
	task   Task
	ctx    context.Context
	handle *Handle
	// scope is the Scope the task was submitted through, nil for the
	// runtime's own: it names the namespace the task's keys live in (ns), and
	// the finishing worker settles its accounting (Scope.taskDone) just before
	// the handle is published, so whoever the handle wakes finds it settled.
	scope *Scope
	// acc[i] is the node's access to task.Deps[i]; nextSlot[i] says which
	// access of acc[i].next is the one queued on the same segment, so a walk
	// down a kick-off list never searches a node for its link. (Kept as two
	// arrays because a {seg, next, slot} triple pads to 24 bytes, and four of
	// them push the node out of its 208-byte size class.) Both are written
	// under the bank lock of acc[i].seg only, and unused once spill is set.
	acc      [inlineDeps]access
	nextSlot [inlineDeps]int32
	spill    *spilled
	// dc is the dependence count: the kick-off lists the task waits in, plus
	// the admission guard while Check Deps still runs (resolveNew). It stays
	// zero for a task that never waits.
	dc atomic.Int32
	// wasSkipped and err are the node's outcome, written by its worker
	// before resolveFinished and published through the handle.
	wasSkipped bool
	err        error
	// poison carries the root-cause error of a failed transitive
	// dependency. Set (first failure wins) by the finish path of a
	// poisoned predecessor — or by checkDeps when the task joins a
	// still-poisoned segment — before this node becomes ready.
	poison atomic.Pointer[taskFailure]
	// blk is the node block the node belongs to, nil for a node of its own.
	blk *nodeBlock
}

// ns is the namespace of the node's addresses: its scope's, or 0 — the
// runtime's own — for a task submitted on the Runtime directly.
func (node *taskNode) ns() uint64 {
	if node.scope != nil {
		return node.scope.ns
	}
	return 0
}

// nodeBlock holds the task nodes of one admission chunk of two or more tasks:
// a run of Task Pool entries, reused chunk after chunk the way Nexus++ reuses
// its fixed pool. A chunk of n tasks takes a block of the smallest class — 2,
// 4, … chunkMax nodes — that holds n, so a short chunk never pins a full one.
type nodeBlock struct {
	// live counts the chunk's tasks that have not finished. admitAll sets it
	// before it admits the first, so the block cannot drain while it is still
	// being filled; the finisher that takes it to zero lists the block free.
	live  atomic.Int32
	self  weak.Pointer[nodeBlock] // made once, with the block: what the free list keeps of it once idle
	nodes []taskNode
}

// blockClasses is the number of node block sizes, 2 to chunkMax nodes.
const blockClasses = 8

// blockClassOf is the class of the smallest block that holds n ≥ 2 nodes:
// class c holds 2<<c.
func blockClassOf(n int) int { return bits.Len(uint(n-1)) - 1 }

// blockList is one class's free node blocks. Every node of a listed block
// is zero, so a listed block pins nothing. While tasks are in flight the list
// holds its blocks strongly, so a steady stream of chunks reuses the same
// blocks whatever the collector does; the runtime going idle (settle) lets
// go of them, leaving only weak entries: a block no chunk takes before the
// next collection is collected, so an idle runtime keeps none, and the list
// drops its entry when it meets it. (A list that holds blocks strongly for
// good pins an idle runtime's peak; one that holds them only weakly loses
// them to every collection under load; a sync.Pool keeps its victims across
// the collection after which a runtime is idle.)
type blockList struct {
	mu   sync.Mutex
	free []listedBlock
}

// listedBlock is an entry of a blockList: the block, weakly, and strongly
// until the runtime is next idle.
type listedBlock struct {
	weak weak.Pointer[nodeBlock]
	held *nodeBlock
}

// takeBlock returns a block for a chunk of n tasks with its live count set
// to n: the last listed block of n's class that is still alive, or a new one.
func (rt *Runtime) takeBlock(n int) *nodeBlock {
	c := blockClassOf(n)
	l := &rt.blocks[c]
	var blk *nodeBlock
	l.mu.Lock()
	for blk == nil && len(l.free) > 0 {
		last := len(l.free) - 1
		if blk = l.free[last].held; blk == nil {
			blk = l.free[last].weak.Value()
		}
		l.free[last] = listedBlock{}
		l.free = l.free[:last]
	}
	l.mu.Unlock()
	if blk == nil {
		blk = &nodeBlock{nodes: make([]taskNode, 2<<c)}
		blk.self = weak.Make(blk)
	}
	blk.live.Store(int32(n))
	return blk
}

// putBlock lists a drained block as free; its finishers have zeroed every
// node it lent out.
func (rt *Runtime) putBlock(blk *nodeBlock) {
	l := &rt.blocks[blockClassOf(len(blk.nodes))]
	l.mu.Lock()
	l.free = append(l.free, listedBlock{blk.self, blk})
	l.mu.Unlock()
}

// letGo drops the list's strong hold on its blocks.
func (l *blockList) letGo() {
	l.mu.Lock()
	for i := range l.free {
		l.free[i].held = nil
	}
	l.mu.Unlock()
}

// slots returns the node's per-dependency slots, indexed like task.Deps.
func (node *taskNode) slots() (acc []access, nextSlot []int32) {
	if sp := node.spill; sp != nil {
		return sp.acc, sp.nextSlot
	}
	return node.acc[:], node.nextSlot[:]
}

// segState is one key's entry in its bank's Dependence Table: who holds the
// key, the kick-off list of who waits for it, and its poison.
type segState struct {
	// key and hash are what the segment is filed under: its key and that
	// key's hash (Runtime.hashKey). They are set when the segment is filed and
	// do not change until it is swept, so a holder may read them through its
	// access without holding the bank: the hash's low bits are how Handle
	// Finished learns which banks to lock.
	key  tableKey
	hash uint64
	// state is the holder state, one word (segOut … segReader) so that a
	// finisher can give up an access with one compare-and-swap and no lock
	// (retire). Check Deps, which holds the bank lock, changes it by
	// compare-and-swap too, for a finisher may retire the segment under it.
	state atomic.Uint64
	// head and tail delimit the kick-off list: tasks waiting for the segment,
	// in arrival order, linked through the access each has on it (slot
	// headSlot of head, slot tailSlot of tail). waiting is its length. All
	// three are zero whenever the list is empty.
	waiting  int32
	headSlot int32
	tailSlot int32
	head     *taskNode
	tail     *taskNode
	// poison records that a task ordered in this segment's history failed,
	// and why; every waiter popped afterwards is a transitive dependent and
	// is skipped. It dies with the segment's holders: once the key has no
	// holder and no waiter, the next task on it starts clean, on a recycled
	// segment or on this one restarted in place. (The boxed record the
	// tainted tasks share, not an error value: one word, which keeps the
	// segment in the 80-byte size class.) Guarded by the bank lock.
	poison *taskFailure
	// nextFree links the segment into its bank's free list while it is
	// swept and recycled; nil while it is filed.
	nextFree *segState
}

// The bits of segState.state. A segment is held by one writer (segOut) or
// by readers (a count of segReader), never both; segQueued says its
// kick-off list is not empty. While readers hold it that makes it the
// paper's "a writer waits" flag: the head of the list is a writer, and a
// reader that arrives queues behind it. A segment nobody holds or waits for
// is exactly segRetired: it stays filed, under the bank lock, until Check
// Deps restarts it for its key's next task or a sweep takes it out.
const (
	segOut     = 1 << 0
	segQueued  = 1 << 1
	segRetired = 1 << 2
	segReader  = 1 << 3
)

// join takes hold as a holder's access to the segment for a task Check Deps
// files — segOut for a writer, segReader for a reader — or queues it behind
// the holders: it restarts a retired segment, adds a reader to readers no
// writer waits behind, and otherwise sets segQueued before the caller
// enqueues, so that no holder retires the segment under the waiter. The
// caller holds the bank lock; the loop is for a finisher retiring an access
// meanwhile.
func (seg *segState) join(hold uint64) (restarted, queued bool) {
	for {
		s := seg.state.Load()
		next := s | segQueued
		switch {
		case s == segRetired:
			next = hold
		case hold == segReader && s&(segOut|segQueued) == 0:
			next = s + segReader
		}
		if next == s || seg.state.CompareAndSwap(s, next) {
			return s == segRetired, next&segQueued != 0
		}
	}
}

// retire gives up a holder's access to the segment without the bank lock,
// and reports whether it could: a reader that is not the last takes itself
// off the count, and a last holder that no task waits behind marks the
// segment retired. A last holder with waiters must release them under the
// bank lock (release). The caller must not touch the segment once it has
// retired it.
func (seg *segState) retire() bool {
	for {
		s := seg.state.Load()
		next := uint64(segRetired)
		switch {
		case s&segOut == 0 && s >= 2*segReader:
			next = s - segReader
		case s&segQueued != 0:
			return false
		}
		if seg.state.CompareAndSwap(s, next) {
			return true
		}
	}
}

// release gives up a holder's access to the segment under the bank lock, and
// appends the waiters whose last dependence that was to released. A non-nil
// root is the failure the holder propagates: it poisons the segment, so that
// every waiter popped behind it — now or by a later finisher — is skipped as
// a transitive dependent while the kick-off list drains normally.
//
// Only the last holder releases anyone: a writer is followed by the next
// writer or by the run of readers at the head of the list, the last reader
// by the writer at its head. A waiter popped becomes a holder, and one whose
// last dependence is elsewhere may start, finish and retire its access
// before this returns: so the new holders' state is published whole, in one
// store, before the first of them is popped.
func (seg *segState) release(root *taskFailure, released []*taskNode) []*taskNode {
	if root != nil && seg.poison == nil {
		seg.poison = root
	}
	if seg.retire() {
		return released
	}
	// This is the last holder and the list is not empty; nobody else writes
	// the word until the first waiter is popped. Count the waiters that
	// become holders, up to the first that stays queued (w).
	writer := seg.headWrites()
	n := 0
	w, i := seg.head, seg.headSlot
	for w != nil && (n == 0 || !writer && w.task.Deps[i].Mode == ModeIn) {
		n++
		acc, nextSlot := w.slots()
		w, i = acc[i].next, nextSlot[i]
	}
	hold := uint64(n) * segReader
	if writer {
		hold = segOut
	}
	if w != nil {
		hold |= segQueued
	}
	seg.state.Store(hold)
	for ; n > 0; n-- {
		released = seg.pop(released)
	}
	return released
}

// enqueue appends the node to the kick-off list, waiting with its access i.
func (seg *segState) enqueue(node *taskNode, i int32) {
	if t := seg.tail; t != nil {
		acc, nextSlot := t.slots()
		acc[seg.tailSlot].next, nextSlot[seg.tailSlot] = node, i
	} else {
		seg.head, seg.headSlot = node, i
	}
	seg.tail, seg.tailSlot = node, i
	seg.waiting++
}

// headWrites reports whether the first waiter wants to write. The list must
// not be empty.
func (seg *segState) headWrites() bool {
	return seg.head.task.Deps[seg.headSlot].Mode != ModeIn
}

// pop takes the head of the kick-off list, taints it when the segment is
// poisoned, and appends it to released if that was its last dependence.
// The popped access gives up its link: a task that runs for long must not
// pin the ones that queued behind it.
func (seg *segState) pop(released []*taskNode) []*taskNode {
	n := seg.head
	acc, nextSlot := n.slots()
	a := &acc[seg.headSlot]
	seg.head, seg.headSlot = a.next, nextSlot[seg.headSlot]
	a.next = nil
	if seg.head == nil {
		seg.tail, seg.headSlot, seg.tailSlot = nil, 0, 0
	}
	seg.waiting--
	if seg.poison != nil {
		n.poison.CompareAndSwap(nil, seg.poison)
	}
	if n.dc.Add(-1) == 0 {
		released = append(released, n)
	}
	return released
}

// ErrStopped is returned by Submit, SubmitAll, Scope.TrySubmitAll, Wait and
// WaitOn after Close.
var ErrStopped = errors.New("starss: runtime is shut down")

// ErrDependencyFailed marks a task skipped because a transitive dependency
// failed; Handle.Err wraps it together with the root cause.
var ErrDependencyFailed = errors.New("starss: dependency failed")

// ErrTaskPanicked marks a task whose body panicked; the recovered value is
// in the wrapping error, and dependents are poisoned as for any failure.
var ErrTaskPanicked = errors.New("starss: task panicked")

// banksFor is the dependence-bank count of a runtime with the given number
// of workers: four banks a worker, within [64, 512] and rounded up to a
// power of two. A submitter holds one bank of its chunk at a time, and a
// finisher that needs the same one waits for it: at 8 banks that was 3
// finishers in 8. The floor of 64 is the smallest count within 3 % of the
// best rt_wavefront tasks/s at Workers 2 (DESIGN.md "Sharded
// dependency-resolution banks"); above 16 workers the slope and the cap are
// the ones that held before chunked Check Deps, not yet measured against it.
// Like the Nexus++ Dependence Table's banking, it is fixed by design, not by
// the program.
func banksFor(workers int) int {
	return 1 << bits.Len(uint(min(max(4*workers, 64), 512)-1))
}

// New starts a runtime with the given configuration.
func New(cfg Config) *Runtime { return newRuntime(cfg, 0, nil) }

// newRuntime applies the defaults and starts the workers. banks is the
// dependence-bank count, a power of two; 0 derives it from Workers
// (banksFor). A non-nil funnel (NewMaestro) takes over all dependency
// resolution; the caller starts it.
func newRuntime(cfg Config, banks int, f *funnel) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if banks == 0 {
		banks = banksFor(cfg.Workers)
	}
	rt := &Runtime{
		cfg:     cfg,
		banks:   make([]bank, banks),
		mask:    uint64(banks - 1),
		segFree: max(segFreeMin, 2*cfg.Window/banks),
		seed:    newSeed(),
		funnel:  f,
		stopped: make(chan struct{}),
	}
	rt.win.limit = int64(cfg.Window)
	// Every in-flight task fits in the ready queue, so dispatching a ready
	// task never blocks — not a submitter, not a worker on the finish path.
	rt.ready.init(cfg.Window)
	for i := range rt.banks {
		rt.banks[i].table = newAddrTable()
	}
	if cfg.EventBuffer > 0 {
		rt.rec = obs.NewRecorder(cfg.Workers, cfg.EventBuffer)
	}
	rt.bankStats = cfg.BankCounters
	rt.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go rt.worker(i)
	}
	return rt
}

// Events returns the lifecycle event recorder, or nil when
// Config.EventBuffer was zero. Drain it while the runtime is idle (or
// after Close) for a complete, ordered log; draining mid-run is safe but
// may split a task's run/finish pair across drains.
func (rt *Runtime) Events() *obs.Recorder { return rt.rec }

// firstBank is the lowest dependence bank the node's keys live in, or -1
// for tasks with no dependencies — the bank identity recorded on the node's
// lifecycle events. It reads the node's segments, so it is valid from Check
// Deps until the node's Handle Finished.
func (rt *Runtime) firstBank(node *taskNode) int {
	acc, _ := node.slots()
	first := -1
	for i := range node.task.Deps {
		if b := int(rt.bankOf(acc[i].seg.hash)); first < 0 || b < first {
			first = b
		}
	}
	return first
}

// emit records one lifecycle transition for node when the event stream is
// on. lane -1 selects the submit-side lane.
func (rt *Runtime) emit(lane int, kind obs.Kind, node *taskNode, worker int) {
	if rt.rec == nil {
		return
	}
	rt.rec.Emit(lane, kind, node.handle.index, len(node.task.Deps), rt.firstBank(node), worker)
}

// hashKey is the one hash of a key in a task's life, seeded per runtime —
// tenants choose their addresses, so they must not be able to choose their
// collisions. It is two rounds of wyhash's multiply-fold (mix) over the
// key's two words and the runtime's three secret words: the step Go's own
// map hash takes for an 8-byte key where it has no AES (memhash64Fallback),
// at under a quarter of maphash.Comparable's cost (BenchmarkHashKey). Its
// low bits pick the key's bank (bankOf), its high bits the home slot in
// that bank's table, and the segment keeps it for Handle Finished.
func (rt *Runtime) hashKey(k tableKey) uint64 {
	return mix(rt.seed[2], mix(k.addr^rt.seed[0], k.ns^rt.seed[1]))
}

// mix multiplies a by b into 128 bits and folds the halves together.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// newSeed draws hashKey's secret words from a fresh maphash seed.
func newSeed() (seed [3]uint64) {
	s := maphash.MakeSeed()
	for i := range seed {
		seed[i] = maphash.Comparable(s, i)
	}
	return seed
}

// bankOf is the bank of a key whose hash is h.
func (rt *Runtime) bankOf(h uint64) int32 { return int32(h & rt.mask) }

// sortedUnique sorts bank indices in place and drops duplicates — the
// canonical bank-acquisition order shared by Check Deps and Handle Finished,
// whose global ascending total order is what keeps multi-bank locking
// deadlock-free.
func sortedUnique(banks []int32) []int32 {
	if len(banks) < 2 {
		return banks
	}
	slices.Sort(banks)
	return slices.Compact(banks)
}

// holds is what Handle Finished's bank pass needs of the node, taken off it
// before the node is cleared: its access slots — an inline node's copied into
// slots, a spilled node's spill, which is not in the node and is the pass's
// to overwrite — and room for the bank order of as many accesses, buf's or
// the spill's.
func (node *taskNode) holds(slots *[inlineDeps]access, buf *[inlineDeps]int32) (acc []access, order []int32) {
	if sp := node.spill; sp != nil {
		return sp.acc, sp.order[:0]
	}
	*slots = node.acc
	return slots[:len(node.task.Deps)], buf[:0]
}

// lockBanks acquires the given sorted bank set; the global ascending order
// makes multi-bank acquisition deadlock-free.
func (rt *Runtime) lockBanks(banks []int32) {
	if rt.bankStats {
		for _, i := range banks {
			rt.banks[i].lockCounted()
		}
		return
	}
	for _, i := range banks {
		rt.banks[i].mu.Lock()
	}
}

// lockCounted acquires the bank with BankCounters on: it first tries the
// uncontended fast path so blocked acquisitions can be counted separately.
func (b *bank) lockCounted() {
	b.acquisitions.Add(1)
	if !b.mu.TryLock() {
		b.contended.Add(1)
		b.mu.Lock()
	}
}

func (rt *Runtime) unlockBanks(banks []int32) {
	for _, i := range banks {
		rt.banks[i].mu.Unlock()
	}
}

// Submit enqueues a task and returns its handle. It blocks while the
// in-flight window is full — cancelling ctx unblocks it — and returns an
// error for invalid tasks, a cancelled context, or after Close. The ctx is
// also the context the task body receives: cancelling it after admission
// fails the task (and poisons its dependents) if it has not started yet,
// and is observable from inside Do once it has. A nil ctx means
// context.Background().
//
// Dependency resolution happens synchronously in the caller: tasks
// submitted from one goroutine acquire segments in exact program order
// (the StarSs sequential-semantics contract). Tasks submitted concurrently
// from several goroutines are ordered chunk by chunk, by their namespace's
// admission lock, and take their indices in that order.
func (rt *Runtime) Submit(ctx context.Context, t Task) (*Handle, error) {
	return rt.submitOne(ctx, nil, t)
}

// submitOne is Submit through scope s, nil for the runtime's namespace: a
// chunk of one, whose handle slice stays on this stack.
func (rt *Runtime) submitOne(ctx context.Context, s *Scope, t Task) (*Handle, error) {
	if t.Do == nil {
		return nil, errNoDo
	}
	var hs [1]*Handle
	handles, err := rt.submit(ctx, ctx, s, []Task{t}, hs[:0], false)
	if err != nil {
		return nil, err
	}
	return handles[0], nil
}

// returnTokens gives n window tokens back — one per finished task, or a
// reservation that was never admitted — and fires the barrier when in-flight
// reaches zero.
func (rt *Runtime) returnTokens(n int) {
	if rt.win.release(int64(n)) != 0 {
		return
	}
	rt.coord.Lock()
	// Re-read under coord: the count may be stale — a task submitted (and a
	// barrier registered for it) after the release must not be signalled
	// past.
	if rt.win.count() == 0 {
		rt.settle(rt.idleCh != nil)
		if rt.idleCh != nil {
			close(rt.idleCh)
			rt.idleCh = nil
		}
	}
	rt.coord.Unlock()
}

// settle lets go of what the runtime keeps only for tasks in flight, once
// none is. It runs whenever the runtime goes idle, before the barrier opens,
// and drops the node-block free lists' strong hold. It sweeps every bank's
// retired segments back to its free list when sweep is set — a Wait or Close
// is about to return, so nothing retired is filed once Wait returns — and
// otherwise at most once every settleEvery tasks a bank. The caller holds
// coord and has seen in-flight at zero, so every finished task has given up
// its accesses; a submitter admitted meanwhile is only swept around.
func (rt *Runtime) settle(sweep bool) {
	for c := range rt.blocks {
		rt.blocks[c].letGo()
	}
	n := rt.submitted.Load()
	if !sweep && n-rt.swept < settleEvery*uint64(len(rt.banks)) {
		return
	}
	rt.swept = n
	for i := range rt.banks {
		b := &rt.banks[i]
		b.mu.Lock()
		if b.table.count > 0 {
			b.sweep(rt.segFree)
		}
		b.mu.Unlock()
	}
}

// settleEvery is how many tasks a bank must have had, on average, since its
// last sweep for a runtime going idle with nobody waiting to sweep again. A
// sweep visits every bank, and a runtime that goes idle between every small
// batch — a service's sessions submitting and awaiting — would otherwise pay
// that visit every few tasks: svc_closed read −2.8 % tasks/s with a sweep at
// every idle point. Segments left filed meanwhile are bounded by the tables,
// which sweep themselves as they fill (bank.takeSeg).
const settleEvery = 16

// idle returns a channel that is closed once no task is in flight: at the
// next idle transition, or already when there is none now — settled first,
// for the finisher that returned the last token may not have taken coord
// yet.
func (rt *Runtime) idle() <-chan struct{} {
	rt.coord.Lock()
	defer rt.coord.Unlock()
	if rt.win.count() == 0 {
		rt.settle(true)
		return closedChan
	}
	if rt.idleCh == nil {
		rt.idleCh = make(chan struct{})
	}
	return rt.idleCh
}

// SubmitAll enqueues a batch of tasks in order. A chunk of the batch (up to
// chunkMax tasks) costs one window reservation, its task nodes are a node
// block a drained chunk gave back — allocated only when none is free — and
// its handles one allocation (admitAll); Check Deps then locks each bank the
// chunk's keys live in once, one bank at a time (resolveNew), and the tasks
// found free of dependencies go to the workers 32 at a time. It blocks while
// the window is full (cancelling ctx unblocks it) and returns the first
// validation error before admitting anything, or
// ErrStopped/ctx.Err() mid-batch; the returned handles cover the prefix that
// was admitted (all tasks on success). A handle the caller keeps keeps its
// chunk's handle block — at most chunkMax × 32 B, 8 KiB — and never a task
// node. A chunk's node block lives until its last task finishes, then waits
// on the runtime's free list — held strongly until the runtime is next idle,
// weakly after: the next chunk of its size class reuses it, or a collection
// while the runtime is idle frees it.
func (rt *Runtime) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) {
	if err := validate(tasks); err != nil {
		return nil, err
	}
	return rt.submit(ctx, ctx, nil, tasks, nil, false)
}

// submit is the one road into the Task Pool, where every admission entry
// ends: Submit, MustSubmit, SubmitAll and WaitOn on the Runtime, Submit,
// SubmitAll, TrySubmitAll and WaitOn on a Scope. It reserves the batch's
// window tokens and admits it chunk by chunk (admitAll), appending the
// handles to handles (nil: a new slice). s is the scope the tasks are filed
// under, nil for the runtime's namespace; ctx bounds the reservation and
// taskCtx is what the bodies receive (WaitOn's task keeps
// context.Background()); a nil one of either means context.Background().
//
// With try the batch never waits: it takes all its tokens, the runtime's and
// then the scope's, or none and ErrWindowFull or ErrScopeFull. Otherwise it
// takes the scope's for the whole batch first (a batch over the limit is an
// error), then the runtime's a chunk at a time, all or nothing, so that two
// submitters never each hold part of the window and wait forever for the
// rest; on error the handles cover the admitted prefix and the scope gets
// the rest's tokens back. A granted token is the licence to admit: from
// there on the path never looks at the stop, because Close cannot finish
// while the token is out.
func (rt *Runtime) submit(ctx, taskCtx context.Context, s *Scope, tasks []Task, handles []*Handle, try bool) ([]*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if taskCtx == nil {
		taskCtx = ctx
	}
	// A dead context is rejected before anything is reserved, rather than
	// sometimes admitted; after Close every admission reports ErrStopped, a
	// zero-length batch, which reserves nothing, included.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rt.win.isShut() {
		return nil, ErrStopped
	}
	n := int64(len(tasks))
	switch {
	case try:
		if !rt.win.tryAcquire(n) {
			if rt.win.isShut() {
				return nil, ErrStopped
			}
			return nil, ErrWindowFull
		}
		if s != nil && !s.win.tryAcquire(n) {
			rt.returnTokens(int(n))
			return nil, ErrScopeFull
		}
	case s != nil:
		if n > s.win.limit {
			return nil, fmt.Errorf("starss: batch of %d exceeds the scope window of %d", n, s.win.limit)
		}
		if err := s.win.acquire(ctx, rt.stopped, n); err != nil {
			return nil, err
		}
	}
	if handles == nil {
		handles = make([]*Handle, 0, n)
	}
	for len(tasks) > 0 {
		// Chunk so one reservation never asks for more tokens than exist.
		c := min(len(tasks), rt.cfg.Window, chunkMax)
		if !try {
			if err := rt.win.acquire(ctx, rt.stopped, int64(c)); err != nil {
				if s != nil {
					s.win.release(int64(len(tasks)))
				}
				return handles, err
			}
		}
		handles = rt.admitAll(taskCtx, s, tasks[:c], handles)
		tasks = tasks[c:]
	}
	return handles, nil
}

// chunkMax is the most tasks an admission chunk holds: one window reservation
// in submit, one node block and one handle block in admitAll. It is the
// largest node block class (blockClasses).
const chunkMax = 256

// readyBatch is the most tasks resolveNew hands to the ready queue at once.
const readyBatch = 32

// admitAll admits one chunk of tasks in order under ctx through scope s (nil:
// the runtime's namespace), appending their handles to handles; the caller
// holds their window tokens.
//
// A chunk of one — Submit, WaitOn — allocates its node and its handle and
// takes no free-list lock: recycling its node cost more than allocating it,
// through a one-node block class (concurrent submitters, up to +36 % ns/op
// in BenchmarkShardScalability) and through a sync.Pool before that.
//
// A larger chunk's nodes are the entries of one node block — the Task Pool
// slots Nexus++ writes descriptors into, taken from the runtime's free list
// (takeBlock) — and its handles one new handle block. The node block lives
// as long as any task of the chunk does, which is why a finished node lets
// go of everything it points at (resolveFinished), and goes back to the free
// list when the last of them finishes, there to be reused or, if no chunk
// takes it before a collection while the runtime is idle, collected. The
// handle block lives as long as the caller keeps a handle, and points at no
// node.
//
// The chunk then goes through Check Deps whole (resolveNew) — or, on the
// maestro, one task per rendezvous. Either way the caller may not read a
// node afterwards: it may finish, and be cleared, before admitAll returns.
func (rt *Runtime) admitAll(ctx context.Context, s *Scope, tasks []Task, handles []*Handle) []*Handle {
	var nodes []taskNode
	var hs []Handle
	var blk *nodeBlock
	if len(tasks) == 1 {
		nodes, hs = new([1]taskNode)[:], new([1]Handle)[:]
	} else {
		blk = rt.takeBlock(len(tasks))
		nodes, hs = blk.nodes[:len(tasks)], make([]Handle, len(tasks))
	}
	for i := range tasks {
		node, h := &nodes[i], &hs[i]
		node.init(ctx, s, blk, &tasks[i])
		node.handle, h.name = h, node.task.Name
		handles = append(handles, h)
	}
	if f := rt.funnel; f != nil {
		// The maestro checks tasks in the order they reach it, so they are
		// numbered here.
		rt.number(s, nodes)
		for i := range nodes {
			f.submitCh <- nodes[i : i+1]
		}
		return handles
	}
	rt.resolveNew(nodes)
	return handles
}

// number counts the chunk submitted — on the runtime and on s — and gives
// its tasks their submission indices, before Check Deps sees the first of
// them, so no counter ever shows a task finished that it has not counted
// submitted.
func (rt *Runtime) number(s *Scope, nodes []taskNode) {
	n := uint64(len(nodes))
	first := rt.submitted.Add(n) - n
	if s != nil {
		s.submitted.Add(n)
	}
	for i := range nodes {
		nodes[i].handle.index = first + uint64(i)
	}
}

// errNoDo rejects a task submitted without a body.
var errNoDo = errors.New("starss: task has no Do function")

// validate rejects a batch holding a task without a body, naming the first,
// before anything is reserved.
func validate(tasks []Task) error {
	for i := range tasks {
		if tasks[i].Do == nil {
			return fmt.Errorf("task %d: %w", i, errNoDo)
		}
	}
	return nil
}

// init normalises task t, submitted under ctx through scope s, into the zero
// node, an entry of block blk.
func (node *taskNode) init(ctx context.Context, s *Scope, blk *nodeBlock, t *Task) {
	node.task, node.ctx, node.scope, node.blk = *t, ctx, s, blk
	node.task.Deps = normalizeDeps(t.Deps)
	if n := len(node.task.Deps); n > inlineDeps {
		ints := make([]int32, 2*n)
		node.spill = &spilled{acc: make([]access, n), nextSlot: ints[:n:n], order: ints[n:]}
	}
}

// dispatch hands a ready task (dependence count zero) to the workers. A task
// without a body — a WaitOn — has nothing for a worker to do: it finishes
// right here, on the goroutine that found it ready (lane is that goroutine's
// event lane), so a WaitOn never waits for a worker to come free. The caller
// holds no bank: the task's Handle Finished takes its own, and so does the
// ready queue's lock.
func (rt *Runtime) dispatch(node *taskNode, lane int) {
	if node.task.Do == nil {
		rt.execute(node, lane)
		rt.finish(node, lane)
		return
	}
	rt.ready.push([]*taskNode{node})
}

// finish is Handle Finished on a goroutine that runs no bodies (a submitter,
// the maestro, a finisher completing a WaitOn): the successor a worker would
// have kept goes to the ready queue like any other released task.
func (rt *Runtime) finish(node *taskNode, lane int) {
	if next := rt.resolveFinished(node, lane); next != nil {
		rt.dispatch(next, lane)
	}
}

// admission is one namespace's side of Check Deps: the lock that orders the
// namespace's concurrent submitters chunk by chunk, and the scratch of the
// chunk's counting sort, which only its holder touches and which is kept, so
// a steady stream of chunks allocates nothing. The runtime has one for its
// own namespace, each Scope one for its. Scopes never share a key, so one
// scope's submitters never wait for another's.
//
// Without it, bank-by-bank filing could deadlock two submitters of one
// namespace: each could file a writer on one key ahead of the other's and
// queue a writer on a second key behind it (TestConcurrentChunksNoDeadlock).
// It is held only across a chunk's Check Deps — never across a window wait,
// a dispatch or a hook — and taken before any bank, never by a finisher.
type admission struct {
	mu sync.Mutex
	// at is, per bank, the chunk's key count, then where the bank's keys
	// start in keys, then where they end; zero between chunks.
	at []int32
	// banks is the set of banks the chunk's keys live in, a bit a bank;
	// empty between chunks.
	banks []uint64
	// hashes are the chunk's key hashes in program order; keys are the same
	// keys grouped by bank, in program order within each bank.
	hashes []uint64
	keys   []chunkKey
}

// chunkKey is one key of a chunk: its hash and which dependency of which
// task of the chunk it is.
type chunkKey struct {
	hash      uint64
	task, dep int32
}

// chunkSet is a set of a chunk's tasks, by index.
type chunkSet [chunkMax / 64]uint64

func (c *chunkSet) add(i int)      { c[i>>6] |= 1 << (i & 63) }
func (c *chunkSet) has(i int) bool { return c[i>>6]&(1<<(i&63)) != 0 }

func (c *chunkSet) len() (n int) {
	for _, w := range c {
		n += bits.OnesCount64(w)
	}
	return n
}

// resolveNew runs Check Deps (Listing 2) for one chunk — every task of it in
// one namespace — and dispatches the tasks it finds free, in order. Under the
// namespace's admission lock it numbers the chunk (unless its submitter
// already did, for the maestro) and files or queues its keys (checkDeps);
// then, holding nothing, it drops each waiting task's admission guard in
// program order. Whoever brings a task's count to zero dispatches it:
// resolveNew dropping the guard, or the finisher that pops the task's last
// kick-off entry after that. The free tasks reach the ready queue readyBatch
// at a time, out of a buffer on this stack: one lock, and at most one
// wake-up per task, for the batch instead of for each.
func (rt *Runtime) resolveNew(nodes []taskNode) {
	s := nodes[0].scope
	adm := &rt.adm
	if s != nil {
		adm = &s.adm
	}
	adm.mu.Lock()
	if rt.funnel == nil {
		// Numbered under the lock, a namespace's tasks take their indices in
		// the order Check Deps sees them.
		rt.number(s, nodes)
	}
	waiting := rt.checkDeps(adm, nodes)
	adm.mu.Unlock()
	if n := waiting.len(); n > 0 {
		rt.hazards.Add(uint64(n))
	}
	var buf [readyBatch]*taskNode
	batch := buf[:0]
	for i := range nodes {
		node := &nodes[i]
		if waiting.has(i) && node.dc.Add(-1) != 0 {
			continue // no longer ours to read
		}
		rt.emit(-1, obs.KindReady, node, -1)
		if node.task.Do == nil {
			rt.dispatch(node, -1)
			continue
		}
		batch = append(batch, node)
		if len(batch) == len(buf) {
			rt.ready.push(batch)
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		rt.ready.push(batch)
	}
}

// checkDeps files or queues every key of the chunk and reports which tasks
// queued on at least one. The caller holds adm, the chunk's namespace's
// admission lock.
//
// It hashes each key once and counting-sorts the keys by bank, then locks the
// banks one at a time, in ascending order, and files each bank's keys in
// program order: one probe per key finds its segment or the slot to file a
// new one in. A task that queues holds an admission guard, one extra count
// taken with its first queued key, that resolveNew drops once every bank is
// done: a finisher that pops the task from a bank already unlocked cannot
// bring its count to zero while a later bank may still queue it.
func (rt *Runtime) checkDeps(adm *admission, nodes []taskNode) (waiting chunkSet) {
	if adm.at == nil {
		adm.at = make([]int32, len(rt.banks))
		adm.banks = make([]uint64, (len(rt.banks)+63)/64)
	}
	at, banks, ns := adm.at, adm.banks, nodes[0].ns()
	n := 0
	for i := range nodes {
		n += len(nodes[i].task.Deps)
	}
	hashes := slices.Grow(adm.hashes[:0], n)
	for i := range nodes {
		deps := nodes[i].task.Deps
		for _, d := range deps {
			h := rt.hashKey(tableKey{ns, d.Addr})
			b := rt.bankOf(h)
			if at[b] == 0 {
				banks[b>>6] |= 1 << (b & 63)
			}
			at[b]++
			hashes = append(hashes, h)
		}
		if rt.rec != nil {
			rt.emitSubmit(&nodes[i], hashes[len(hashes)-len(deps):])
		}
	}
	adm.hashes = hashes
	// at[b] becomes where bank b's keys start, and then, as they are placed,
	// where they end.
	var start int32
	for w, word := range banks {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			at[b], start = start, start+at[b]
		}
	}
	keys := slices.Grow(adm.keys[:0], n)[:n]
	k := 0
	for i := range nodes {
		for j := range nodes[i].task.Deps {
			h := hashes[k]
			b := rt.bankOf(h)
			keys[at[b]] = chunkKey{h, int32(i), int32(j)}
			at[b]++
			k++
		}
	}
	adm.keys = keys
	start = 0
	for w, word := range banks {
		banks[w] = 0
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			end := at[b]
			at[b] = 0
			bk := &rt.banks[b]
			if rt.bankStats {
				bk.lockCounted()
			} else {
				bk.mu.Lock()
			}
			for _, key := range keys[start:end] {
				node := &nodes[key.task]
				if !rt.file(bk, ns, node, int(key.dep), key.hash) {
					continue
				}
				// The count is published before the bank is unlocked: a
				// finisher may pop the task the moment it is.
				if waiting.has(int(key.task)) {
					node.dc.Add(1)
				} else {
					waiting.add(int(key.task))
					node.dc.Add(2) // this key and the guard
				}
			}
			bk.mu.Unlock()
			start = end
		}
	}
	return waiting
}

// emitSubmit records the task's submit event, with the lowest bank of its
// keys, given their hashes, before they are filed.
func (rt *Runtime) emitSubmit(node *taskNode, hashes []uint64) {
	first := -1
	for _, h := range hashes {
		if b := int(rt.bankOf(h)); first < 0 || b < first {
			first = b
		}
	}
	rt.rec.Emit(-1, obs.KindSubmit, node.handle.index, len(hashes), first, -1)
}

// noteQueueDepth raises the bank's kick-off high-water mark. The caller
// holds the bank lock, so the load/store pair has a single writer; the
// atomic lets Stats read it without the lock.
func (rt *Runtime) noteQueueDepth(b *bank, depth int32) {
	if !rt.bankStats {
		return
	}
	if d := uint64(depth); d > b.maxQueue.Load() {
		b.maxQueue.Store(d)
	}
}

// file acquires or queues on the segment of dependency i of the node in
// namespace ns, whose key hashes to h and lives in bank b, recording the
// segment in the node's access slot, and reports whether the task queued.
// The caller holds b.
func (rt *Runtime) file(b *bank, ns uint64, node *taskNode, i int, h uint64) (queued bool) {
	d := node.task.Deps[i]
	key := tableKey{ns, d.Addr}
	acc, _ := node.slots()
	hold := uint64(segReader)
	if d.Mode != ModeIn {
		hold = segOut
	}
	seg, at := b.table.find(h, key)
	if seg == nil {
		seg = b.takeSeg(key, h, at, rt.segFree)
		seg.state.Store(hold)
		acc[i].seg = seg
		return false
	}
	acc[i].seg = seg
	restarted, queued := seg.join(hold)
	switch {
	case restarted:
		// The key's last holder retired the segment: its history is over.
		seg.poison = nil
	case seg.poison != nil:
		// A still-held poisoned segment taints every task that joins it —
		// reader or writer, queued or not — until its holders are gone.
		// Without this a reader sharing the segment with already-skipped
		// readers would run against data its failed producer never wrote.
		node.poison.CompareAndSwap(nil, seg.poison)
	}
	if queued {
		seg.enqueue(node, int32(i))
		rt.noteQueueDepth(b, seg.waiting)
	}
	return queued
}

// rootCause is the failure a finished node propagates to its dependents: its
// own, or — when the node itself was skipped — the original root cause it
// was poisoned with, so chains report the first failure, not a nest of skip
// wrappers.
func (node *taskNode) rootCause() *taskFailure {
	if node.err == nil {
		return nil
	}
	if p := node.poison.Load(); p != nil {
		return p
	}
	return &taskFailure{err: node.err}
}

// resolveFinished runs the Handle Finished path (§III-B) for one task, in one
// pass; worker is the finishing goroutine's event lane. Each step happens
// before the next, and the tests named with a step pin its edge:
//
//  1. Decide the outcome — executed, failed or skipped, by what the runtime
//     did with the task, never by what its error looks like — and count it.
//  2. Take what the bank pass needs off the node (holds): its segment
//     pointers and the root cause it propagates. Then clear the node, and
//     list its block free if it was its chunk's last task: a node of a block
//     shares it with its chunk-mates, and one of them still running would
//     otherwise pin this task's body, context and dependencies. Whoever the
//     handle wakes finds the node cleared (TestRetentionChunkMateBody,
//     TestKickoffDrainLeavesNoLinks, TestNodeBlockClass).
//  3. Settle the scope: its counters, its token and its hook, so whoever the
//     handle wakes finds them settled (TestScopeAccountingSettledBeforeHandle,
//     TestServiceTokensSettledBeforeAwaitReturns).
//  4. An executed task publishes its handle, then gives up each access that
//     frees no waiter with one compare-and-swap and no lock (retire). Its
//     segments are still held at the publish, so a task admitted before it —
//     a WaitOn above all — queues behind this one rather than finding its
//     keys free (TestWaitOnSeesPublishedTask, TestKeyIdentity); one admitted
//     between the publish and the retire queues too, and step 5 releases
//     it. A failed or skipped task publishes under every one of its bank
//     locks instead: no task is admitted on its keys between the publish and
//     the release, so one submitted once the handle reports done finds them
//     as step 5 leaves them, and a failed task's poison still dies with its
//     holders instead of tainting a task submitted after the failure was seen
//     (TestScopeAccountingSettledBeforeHandle, TestRetiredSegmentStartsClean).
//     The caller may now reuse the task's Deps: nothing below reads them
//     (TestHandleDoneFreesDeps).
//  5. Lock, in ascending order, the banks of the accesses left — for an
//     executed task the ones whose release frees a waiter — release each
//     segment and pop its kick-off list (release), and unlock. The pass
//     follows the segment pointers Check Deps left: no key is hashed or even
//     derived here. A failed (or skipped) finisher poisons the segments it
//     releases.
//  6. Pass the released tasks on. The first with a body is returned as next:
//     the caller runs it — its data is what this task just touched — or,
//     when it runs no bodies, queues it (finish). Every other one, a WaitOn
//     included, is dispatched at once.
//  7. Return the window token, last: a barrier that sees in-flight reach zero
//     finds every handle published and every access given up
//     (TestBarrierWaitsForAll, TestIdleRuntimeFilesNoRetired).
func (rt *Runtime) resolveFinished(node *taskNode, worker int) (next *taskNode) {
	o := Executed
	switch {
	case node.wasSkipped:
		o = Skipped
	case node.err != nil:
		o = Failed
		rt.firstErr.CompareAndSwap(nil, &taskFailure{err: node.err})
	}
	rt.record(o)

	root := node.rootCause()
	var slots [inlineDeps]access
	var orderBuf [inlineDeps]int32
	acc, order := node.holds(&slots, &orderBuf)
	h, err, s, blk := node.handle, node.err, node.scope, node.blk
	*node = taskNode{}
	if blk != nil && blk.live.Add(-1) == 0 {
		rt.putBlock(blk)
	}

	if s != nil {
		s.taskDone(o, err)
	}

	if o == Executed {
		h.complete(o, err)
		left := acc[:0]
		for _, a := range acc {
			if !a.seg.retire() {
				left = append(left, a)
			}
		}
		acc = left
	}
	for _, a := range acc {
		order = append(order, rt.bankOf(a.seg.hash))
	}
	order = sortedUnique(order)
	rt.lockBanks(order)
	if o != Executed {
		h.complete(o, err)
	}
	// Most finishers release at most a few waiters; keep them off the heap.
	var buf [8]*taskNode
	released := buf[:0]
	for _, a := range acc {
		released = a.seg.release(root, released)
	}
	rt.unlockBanks(order)

	for _, n := range released {
		rt.emit(worker, obs.KindReady, n, worker)
		if next == nil && n.task.Do != nil {
			next = n
			continue
		}
		rt.dispatch(n, worker)
	}

	rt.returnTokens(1)
	return next
}

// MustSubmit is Submit with a background context that panics on submission
// error, for straight-line example code.
func (rt *Runtime) MustSubmit(t Task) *Handle {
	h, err := rt.Submit(context.Background(), t)
	if err != nil {
		panic(err)
	}
	return h
}

// Wait blocks until every task submitted before the call has completed —
// the css barrier pragma — and returns the first task failure recorded so
// far (the root cause, not a skip wrapper), nil when all tasks succeeded,
// ctx.Err() if the context is cancelled first, or ErrStopped when the
// runtime is already closed.
func (rt *Runtime) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if rt.win.isShut() {
		return ErrStopped
	}
	select {
	case <-rt.idle():
		return rt.failure()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// failure returns the first recorded root-cause task failure, or nil.
func (rt *Runtime) failure() error {
	if f := rt.firstErr.Load(); f != nil {
		return f.err
	}
	return nil
}

// InFlight returns the current number of submitted-but-unfinished tasks —
// the live window occupancy, for service /debug endpoints.
func (rt *Runtime) InFlight() int { return int(rt.win.count()) }

// QueueDepth returns the number of ready tasks currently queued for a
// worker (dependence count zero, body not yet started).
func (rt *Runtime) QueueDepth() int { return rt.ready.len() }

// WindowSize returns the configured in-flight window capacity.
func (rt *Runtime) WindowSize() int { return rt.cfg.Window }

// Stats returns a snapshot of the runtime counters. After Close it returns
// the final counters. The Bank* fields stay zero unless Config.BankCounters
// was set.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		TaskCounts:  rt.counts(),
		MaxInFlight: int(rt.win.max.Load()),
		Hazards:     rt.hazards.Load(),
	}
	for i := range rt.banks {
		b := &rt.banks[i]
		s.BankAcquisitions += b.acquisitions.Load()
		s.BankContended += b.contended.Load()
		if q := b.maxQueue.Load(); q > s.BankMaxQueue {
			s.BankMaxQueue = q
		}
	}
	return s
}

// Close refuses further submissions, waits for every task already admitted,
// stops the workers and returns the first task failure (nil when every task
// succeeded). Submitters still waiting for room in the window are woken with
// ErrStopped. The runtime cannot be reused afterwards; further
// Submit/Wait/WaitOn calls return ErrStopped and further Close calls return
// the same failure.
func (rt *Runtime) Close() error {
	rt.stopOnce.Do(func() {
		// Shutting the window is the stop: from here no reservation succeeds,
		// so the tasks in flight — and the submitters that hold tokens but
		// have not admitted yet — are all there will ever be, and one drain
		// sees the last of them. Only then is the ready queue safe to close.
		rt.win.shut()
		close(rt.stopped)
		<-rt.idle()
		rt.ready.close()
		rt.workerWG.Wait()
		if rt.funnel != nil {
			// Only now: the maestro had to resolve the finishers the drain
			// waited for, and the workers that feed it are gone.
			rt.funnel.stop()
		}
	})
	return rt.failure()
}

// shortDeps is the longest dependency list checked for duplicate addresses
// by pairwise comparison instead of through a map.
const shortDeps = 8

// normalizeDeps merges duplicate addresses: any read + any write on the same
// address becomes inout, duplicate same-mode entries collapse. A list without
// duplicates — the common case — is returned as is, not copied.
func normalizeDeps(deps []Dep) []Dep {
	if len(deps) <= shortDeps && !hasDuplicateAddr(deps) {
		return deps
	}
	out := make([]Dep, 0, len(deps))
	index := make(map[uint64]int, len(deps))
	for _, d := range deps {
		i, seen := index[d.Addr]
		if !seen {
			index[d.Addr] = len(out)
			out = append(out, d)
			continue
		}
		a, b := out[i].Mode, d.Mode
		switch {
		case a == b:
		case a == ModeInOut:
		default:
			out[i].Mode = ModeInOut
		}
	}
	return out
}

// hasDuplicateAddr compares every pair of addresses of at most shortDeps
// dependencies.
func hasDuplicateAddr(deps []Dep) bool {
	for i := 1; i < len(deps); i++ {
		for j := 0; j < i; j++ {
			if deps[i].Addr == deps[j].Addr {
				return true
			}
		}
	}
	return false
}

// successorRun is the most successors a worker runs back to back before it
// returns to the ready queue: the next one goes to the queue's tail, so one
// long chain cannot keep a worker from the ready tasks queued meanwhile.
const successorRun = 16

// worker is one worker core: it takes ready tasks, one at a time, and runs
// them (runBody) — and after each, the successor its Handle Finished
// released, without a trip through the queue, for up to successorRun in a
// row. id is the worker's index — its event-stream lane.
func (rt *Runtime) worker(id int) {
	defer rt.workerWG.Done()
	for {
		node, ok := rt.ready.pop()
		if !ok {
			return
		}
		for run := 0; node != nil; run++ {
			node = rt.runBody(node, id)
			if node != nil && run == successorRun {
				rt.dispatch(node, id)
				break
			}
		}
	}
}

// runBody executes one node on worker id and resolves its completion,
// returning the successor the worker is to run next, if it released one.
func (rt *Runtime) runBody(node *taskNode, id int) (next *taskNode) {
	rt.execute(node, id)
	if f := rt.funnel; f != nil {
		f.doneCh <- node
		return nil
	}
	return rt.resolveFinished(node, id)
}

// execute runs the node's lifecycle up to Handle Finished, bracketed with run
// and finish (or poison, for skipped tasks) events on one lane — the
// per-worker ordering the Chrome exporter's timeline nesting relies on.
// Execution itself lives in runNode (exec.go).
func (rt *Runtime) execute(node *taskNode, lane int) {
	rt.emit(lane, obs.KindRun, node, lane)
	runNode(node)
	if node.wasSkipped {
		rt.emit(lane, obs.KindPoison, node, lane)
	} else {
		rt.emit(lane, obs.KindFinish, node, lane)
	}
}
