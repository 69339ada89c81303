// Package starss is a real, executing StarSs-style task-dataflow runtime
// for Go whose scheduler is the Nexus++ dependency-resolution algorithm.
//
// Tasks are Go closures annotated with the data they read and write: Addr
// dependencies on base addresses, as in the paper, or In/Out/InOut
// dependencies on any comparable user-chosen key. The runtime discovers RAW
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
// resolver goroutine. Multi-key tasks acquire their banks in sorted index
// order, which keeps the runtime deadlock-free, and no bank is held for
// longer than one task's Check Deps or Handle Finished: SubmitAll reserves
// a chunk's window tokens at once but checks it task by task. Each key is
// hashed once in a task's life (hashKey) and probed for once, by Check Deps —
// the task keeps, per dependency, the segment Check Deps found or filed,
// Handle Finished follows those pointers, a drained segment leaves the table
// by the hash it carries, and a segment's kick-off list is threaded through
// the waiting tasks themselves. The table is keyed as the paper's is, by
// address: a bank files its keys — {namespace, address}, or {namespace, any
// other comparable value} (tableKeyOf) — in one open-addressed table of its
// own (table.go), and the namespace — 0 for the runtime, one per Scope — is
// a field of the key, never a wrapper around it. NewMaestro
// (maestro.go) builds the same runtime with that single resolver goroutine
// put back, as the baseline the banks are measured against.
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
// operation, and no batched task an allocation of its own: Submit and WaitOn
// allocate a task's node and its handle, two allocations whether it waits or
// not, but SubmitAll and Scope.TrySubmitAll take the nodes of a chunk of up
// to 256 tasks from a node block a drained chunk left on the runtime's free
// list, and carve its handles out of one new block — two allocations per
// chunk, the handle slice included (TestSubmitAllocations,
// TestScopeSubmitAllocations: go test -run Allocations ./internal/starss).
// The free list holds its blocks weakly: an idle runtime keeps none past the
// next collection (TestNodeBlock*).
//
// The three phases of the paper's Task Controllers — Get Inputs
// (Task.Prefetch), Run Task (Task.Do), Put Outputs (Task.WriteBack) — run
// back to back on the worker. Their double buffering, a property of private
// per-core memory, is modelled and measured in internal/core.
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
	"time"
	"weak"

	"nexuspp/internal/faults"
	"nexuspp/internal/obs"
)

// Mode is a dependency direction.
type Mode uint8

const (
	// ModeIn marks data the task only reads.
	ModeIn Mode = iota
	// ModeOut marks data the task only writes.
	ModeOut
	// ModeInOut marks data the task reads and writes.
	ModeInOut
)

// String returns the pragma spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeIn:
		return "in"
	case ModeOut:
		return "out"
	case ModeInOut:
		return "inout"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Key identifies a piece of data. Keys are compared with ==; any comparable
// value works (strings, ints, pointers, small structs). A uint64 is a base
// address: it names the same data as Addr of that value.
type Key = any

// Dep declares one data access of a task.
type Dep struct {
	Key  Key
	Mode Mode
	// isAddr marks a dependency made by Addr: addr is its key and Key is nil.
	isAddr bool
	addr   uint64
}

// Addr declares an access of mode m to the data at base address addr — the
// paper's own Dependence Table key. It names the same data as a Key holding
// uint64(addr), without boxing the address into an interface.
func Addr(addr uint64, m Mode) Dep { return Dep{Mode: m, isAddr: true, addr: addr} }

// In declares a read-only dependency.
func In(k Key) Dep { return Dep{Key: k, Mode: ModeIn} }

// Out declares a write-only dependency.
func Out(k Key) Dep { return Dep{Key: k, Mode: ModeOut} }

// InOut declares a read-write dependency.
func InOut(k Key) Dep { return Dep{Key: k, Mode: ModeInOut} }

// Task is a unit of work with declared dependencies.
type Task struct {
	// Name is optional and used in diagnostics and Handle.Name.
	Name string
	// Deps declares the data the task accesses. Duplicate keys are merged
	// (read + write on the same key becomes inout). The runtime reads the
	// slice until the task finishes: do not modify it after submitting.
	Deps []Dep
	// Do executes the task. The context is the one the task was submitted
	// with; bodies should honour its cancellation. A non-nil error marks
	// the task failed and poisons its transitive dependents. Required (only
	// WaitOn admits a task without one: see dispatch).
	Do func(ctx context.Context) error
	// Prefetch, when set, runs on the worker immediately before the task
	// body (the Get Inputs phase). It must only touch the task's declared
	// In/InOut data. It does not run for skipped or cancelled tasks, and a
	// panic in it fails the task like a panic in the body.
	Prefetch func()
	// WriteBack, when set, runs after a successful task body on the worker
	// (the Put Outputs phase). The task's outputs are only visible to
	// dependents after it. It does not run when the body fails.
	WriteBack func()
	// MaxRetries re-arms a failed attempt (body error, panic, or Timeout
	// overrun) up to this many extra times before the failure sticks and
	// poisons dependents. The re-arm happens on the worker before the
	// handle-finished path runs, so a recovered task never taints its
	// dependents. A dead submission context is final and never retried.
	MaxRetries int
	// RetryBackoff is the base delay between attempts; backoff grows
	// exponentially per attempt with full jitter, capped by
	// RetryMaxBackoff. 0 selects 1ms.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the per-attempt backoff. 0 selects 250ms.
	RetryMaxBackoff time.Duration
	// Timeout bounds each execution attempt of the body: the attempt's
	// context expires after this budget and the failure surfaces as an
	// error wrapping ErrTaskTimeout (retryable — each attempt gets a fresh
	// budget). 0 means no per-task deadline.
	Timeout time.Duration
	// scope is the Scope the task was submitted through, if any. It names
	// the namespace the task's keys live in, and the finishing worker settles
	// its accounting (Scope.taskDone) just before the handle is published:
	// whoever the handle wakes finds it settled.
	scope *Scope
}

// ns is the namespace of the task's keys: its scope's, or 0 — the runtime's
// own — for a task submitted on the Runtime directly.
func (t *Task) ns() uint64 {
	if t.scope != nil {
		return t.scope.ns
	}
	return 0
}

// addrKey is the Dependence Table key of a parameter's base address: the
// address and the namespace (the master core's address space) it belongs to.
type addrKey struct{ ns, addr uint64 }

// tableKey is a dependency's key as the banks file it: an address key
// (other nil), or — for a Key that is not an address — {ns, other}, with addr
// zero. It is derived where it is needed (a type switch, no hash) and kept
// by the segment it files.
type tableKey struct {
	addrKey
	other Key
}

// nilKey stands in for a nil Key, so that In(nil) is a key of its own and
// not address 0.
type nilKey struct{}

// tableKeyOf derives d's table key in namespace ns — the one place a Dep
// becomes a key. An Addr dependency and any Key holding a uint64 are the
// same address key. (A bare Key k is derived as tableKeyOf(ns, Dep{Key: k}).)
func tableKeyOf(ns uint64, d Dep) tableKey {
	if d.isAddr {
		return tableKey{addrKey: addrKey{ns, d.addr}}
	}
	switch k := d.Key.(type) {
	case uint64:
		return tableKey{addrKey: addrKey{ns, k}}
	case nil:
		return tableKey{addrKey: addrKey{ns: ns}, other: nilKey{}}
	default:
		return tableKey{addrKey: addrKey{ns: ns}, other: k}
	}
}

// Config parameterises a Runtime.
type Config struct {
	// Workers is the number of worker goroutines; 0 selects GOMAXPROCS.
	Workers int
	// Window bounds the number of in-flight (submitted, unfinished) tasks,
	// the analogue of the Task Pool size; Submit blocks when it is full,
	// and blocked submitters are served in arrival order. 0 selects 1024.
	Window int
	// Shards is the number of dependency-table banks the key space is
	// hashed across — the software analogue of the Nexus++ Dependence
	// Table banks. Tasks on keys in different banks resolve concurrently;
	// 1 is one bank, whose lock every submitter and finisher takes itself
	// (the single-resolver baseline is NewMaestro, not Shards: 1). Values
	// are rounded up to a power of two; 0 selects a default scaled to
	// Workers.
	Shards int
	// EventBuffer enables the lifecycle event stream (submit/ready/run/
	// finish/poison) and sets the per-lane ring capacity; 0 (the default)
	// disables it, leaving a single nil check on every emission point.
	// Drain the stream via Events.
	EventBuffer int
	// BankCounters enables per-bank lock instrumentation (acquisitions,
	// contended acquisitions, max kick-off queue depth), surfaced through
	// Stats. Off by default: the counting replaces the plain bank Lock with
	// a TryLock-then-Lock pair on every acquisition.
	BankCounters bool
	// Faults injects deterministic, seeded faults into task execution and
	// dispatch (see internal/faults): task_error/task_panic/task_hang on
	// bodies, kickoff_delay on the ready→run path. Nil (the default)
	// disables injection; the hot path then pays one nil check, the same
	// discipline as the event stream.
	Faults *faults.Injector
}

// Stats reports runtime counters; the JSON keys are the service's.
type Stats struct {
	TaskCounts
	// Retried counts re-armed execution attempts: a task with MaxRetries
	// whose attempt failed and ran again. A task retried twice counts 2.
	Retried uint64 `json:"retried"`
	// MaxInFlight is the high-water mark of submitted-but-unfinished tasks;
	// it never exceeds Config.Window (for a Scope, its own limit).
	MaxInFlight int `json:"max_in_flight"`
	// Hazards counts tasks that had to wait at least once (DC > 0).
	Hazards uint64 `json:"hazards"`
	// BankAcquisitions counts dependence-bank lock acquisitions; zero
	// unless Config.BankCounters is set.
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
		"submitted=%d executed=%d failed=%d skipped=%d retried=%d hazards=%d max-in-flight=%d",
		s.Submitted, s.Executed, s.Failed, s.Skipped, s.Retried, s.Hazards, s.MaxInFlight)
}

// Handle tracks one submitted task — the software analogue of the task ID
// the Nexus++ hardware assigns at submission and tracks through Handle
// Finished. Handles are returned by Submit/SubmitAll and stay valid after
// the runtime is closed.
type Handle struct {
	index uint64
	name  string // Task.Name; empty for a nameless task
	// done holds the task's completion channel: nil until someone asks for
	// it or the task finishes, doneClosed from then on. Most handles are
	// never selected on, so the channel is made lazily (as
	// context.cancelCtx does) and the finished state doubles as the Err/Wait
	// fast path.
	done    atomic.Pointer[doneCell]
	err     error // err and outcome are written before done becomes doneClosed
	outcome Outcome
}

// doneCell is a completion channel behind a pointer, so that publishing a
// handle is one pointer exchange.
type doneCell struct{ ch chan struct{} }

// closedChan is the channel every finished handle shares.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// doneClosed is the cell of every finished handle: the finished check is a
// pointer comparison.
var doneClosed = &doneCell{ch: closedChan}

// finished reports whether the outcome is published; h.err may be read
// after it returns true.
func (h *Handle) finished() bool { return h.done.Load() == doneClosed }

// Done returns a channel closed when the task completes: executed, failed,
// or skipped because a dependency failed. Every call returns a channel that
// is (or will be) closed, whether it is first requested before or after the
// task finished.
func (h *Handle) Done() <-chan struct{} {
	if d := h.done.Load(); d != nil {
		return d.ch
	}
	c := &doneCell{ch: make(chan struct{})}
	if h.done.CompareAndSwap(nil, c) {
		return c.ch
	}
	// Lost to another Done call or to complete; either left a channel.
	return h.done.Load().ch
}

// Err returns the task's final status: nil while the task is still pending
// or after success; the body's error (or panic, or cancellation cause) on
// failure; an error wrapping ErrDependencyFailed and the root cause when
// the task was skipped.
func (h *Handle) Err() error {
	if h.finished() {
		return h.err
	}
	return nil
}

// Outcome reports how the task ended, as the runtime classified it and
// counted it, or Pending while it has not.
func (h *Handle) Outcome() Outcome {
	if h.finished() {
		return h.outcome
	}
	return Pending
}

// Index is the task's submission index, assigned in admission order — the
// task-ID analogue.
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
// task's final error or ctx.Err().
func (h *Handle) Wait(ctx context.Context) error {
	if h.finished() {
		return h.err
	}
	select {
	case <-h.Done():
		return h.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// complete publishes the task's outcome: o and err are visible to any
// reader that observes the handle finished, and so is everything the
// finishing worker did before the call.
func (h *Handle) complete(o Outcome, err error) {
	h.err, h.outcome = err, o
	if c := h.done.Swap(doneClosed); c != nil {
		close(c.ch)
	}
}

// bank is one lock-striped slice of the dependence table, sized to exactly
// 64 bytes so adjacent hot bank locks sit on separate cache lines. The
// counters are only written when Config.BankCounters is set
// (acquisitions/contended under TryLock knowledge, maxQueue under the bank
// lock) but are always read atomically by Stats.
type bank struct {
	mu sync.Mutex
	// table files the bank's live segments (table.go), whatever their kind of
	// key.
	table *addrTable
	// free lists nfree drained segments for reuse (linked through
	// segState.nextFree), guarded by mu like the table. It is bounded
	// (Runtime.segFree) because an idle runtime keeps it: an unbounded list
	// would pin a burst's worth of segments for the runtime's life.
	free         *segState
	nfree        int
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	maxQueue     atomic.Uint64
	_            [8]byte // pad to the cache line
}

// segFreeMin is the least a bank's free list may hold.
const segFreeMin = 64

// takeSeg returns an empty segment for key k, whose hash is h, and files it
// in slot at of the bank's table, where a find of k just missed it. The
// caller holds b.mu.
func (b *bank) takeSeg(k tableKey, h uint64, at int) *segState {
	seg := b.free
	if seg != nil {
		b.free, seg.nextFree = seg.nextFree, nil
		b.nfree--
	} else {
		seg = &segState{}
	}
	seg.key, seg.hash = k, h
	b.table.put(at, seg)
	return seg
}

// dropSeg removes the drained segment seg and recycles it, unless the free
// list already holds keep segments. The caller holds b.mu. A drained
// segment's kick-off list is empty, so the free list pins no task, and the
// reset leaves nothing of the key it served — a boxed key included.
func (b *bank) dropSeg(seg *segState, keep int) {
	b.table.remove(seg)
	if b.nfree >= keep {
		return
	}
	*seg = segState{nextFree: b.free}
	b.free = seg
	b.nfree++
}

// Runtime schedules and executes tasks.
type Runtime struct {
	cfg   Config
	banks []bank
	mask  uint64
	// segFree bounds each bank's free list at twice the bank's share of a
	// full window. The in-flight count swings between empty and full many
	// times in a long run, and a list smaller than the live segments of a
	// full window turns every swing into garbage on the way down and
	// allocations on the way up. A task files up to one segment per key, not
	// per task: on the bench/ rt_* shapes (Window 4096, 8 banks) a bank's
	// peak is 550–616 live segments, up to 1.2 times its share of 512, and
	// wavefront tasks hold three keys. An idle runtime keeps what the lists
	// hold, at most segFree × 96 B × banks — 2 × Window × 96 B, 48 MiB for the
	// service's largest derived window of 1<<18 — and only once that many
	// segments were live at once.
	segFree int
	seed    maphash.Seed
	win     window
	ready   readyQueue
	// blocks lists the drained SubmitAll node blocks, by class.
	blocks   [blockClasses]blockList
	stopOnce sync.Once
	// stopped is closed by Close, once the window is shut, to wake submitters
	// queued on a full window — the runtime's or a scope's — with ErrStopped.
	// Whether the runtime is stopped is the window's to say (win.isShut).
	stopped  chan struct{}
	workerWG sync.WaitGroup

	// lastNS is the namespace of the newest Scope; 0 is the runtime's own.
	lastNS atomic.Uint64

	tally
	retried  atomic.Uint64
	hazards  atomic.Uint64
	firstErr atomic.Pointer[taskFailure]

	// coord guards idleCh, the barrier every Wait and Close parks on: made by
	// the first of them to find tasks in flight, closed and dropped by the
	// finisher that returns the last token. The token-return path takes coord
	// only when in-flight hits zero, so it stays off the steady-state hot path.
	coord  sync.Mutex
	idleCh chan struct{}

	// rec is the lifecycle event stream (nil unless Config.EventBuffer is
	// set); bankStats gates the per-bank lock counters. Both are fixed at
	// construction, so emission points pay one predictable branch.
	rec       *obs.Recorder
	bankStats bool

	// funnel, when non-nil (NewMaestro), is the one goroutine that performs
	// every Check Deps and Handle Finished: admit and runBody hand it their
	// nodes instead of resolving in place.
	funnel *funnel
}

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
// dependencies, and its bank mapping.
type spilled struct {
	acc      []access
	nextSlot []int32
	// scratch is hashDeps' space. order, a window onto it, is the sorted,
	// deduplicated bank set, kept from Check Deps for Handle Finished:
	// deriving it again would cost such a task a sort and an allocation.
	scratch, order []int32
}

// taskNode is a task's slot in the Task Pool: an allocation of its own for
// Submit and WaitOn, an element of its chunk's node block for SubmitAll. It
// is zeroed when the task finishes (resolveFinished).
type taskNode struct {
	// task is the submitted task; task.Deps is normalised (no duplicate
	// keys) by init.
	task   Task
	ctx    context.Context
	handle *Handle
	// acc[i] is the node's access to task.Deps[i]; nextSlot[i] says which
	// access of acc[i].next is the one queued on the same segment, so a walk
	// down a kick-off list never searches a node for its link. (Kept as two
	// arrays because a {seg, next, slot} triple pads to 24 bytes, and four of
	// them push the node out of its 256-byte size class.) Both are written
	// under the bank lock of acc[i].seg only, and unused once spill is set.
	acc      [inlineDeps]access
	nextSlot [inlineDeps]int32
	spill    *spilled
	dc       atomic.Int32
	// wasSkipped and err are the node's outcome, written by its worker
	// before resolveFinished and published through the handle. A panic
	// recovered from Task.Prefetch lands in err, and the worker then fails
	// the task instead of running the body.
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

// nodeBlock holds the task nodes of one SubmitAll chunk: a run of Task Pool
// entries, reused chunk after chunk the way Nexus++ reuses its fixed pool.
// A chunk of n tasks takes a block of the smallest class — 1, 2, 4, …
// chunkMax nodes — that holds n, so a short chunk never pins a full one.
type nodeBlock struct {
	// live counts the chunk's tasks that have not finished. admitAll sets it
	// before it admits the first, so the block cannot drain while it is still
	// being filled; the finisher that takes it to zero lists the block free.
	live  atomic.Int32
	self  weak.Pointer[nodeBlock] // made once, with the block: what the free list holds
	nodes []taskNode
}

// blockClasses is the number of node block sizes, 1 to chunkMax nodes.
const blockClasses = 9

// blockClassOf is the class of the smallest block that holds n ≥ 1 nodes.
func blockClassOf(n int) int { return bits.Len(uint(n - 1)) }

// blockList is one class's free node blocks. Every node of a listed block is
// zero, so a listed block pins nothing, and the list holds its blocks only
// weakly: a block no chunk takes before the next collection is collected, so
// an idle runtime keeps none, and the list drops its entry when it meets it.
// (A list that holds blocks strongly pins an idle runtime's peak; a sync.Pool
// keeps its victims across the collection after which a runtime is idle.)
type blockList struct {
	mu   sync.Mutex
	free []weak.Pointer[nodeBlock]
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
		blk = l.free[last].Value()
		l.free = l.free[:last]
	}
	l.mu.Unlock()
	if blk == nil {
		blk = &nodeBlock{nodes: make([]taskNode, 1<<c)}
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
	l.free = append(l.free, blk.self)
	l.mu.Unlock()
}

// slots returns the node's per-dependency slots, indexed like task.Deps.
func (node *taskNode) slots() (acc []access, nextSlot []int32) {
	if sp := node.spill; sp != nil {
		return sp.acc, sp.nextSlot
	}
	return node.acc[:], node.nextSlot[:]
}

type segState struct {
	// key and hash are what the segment is filed under: its key and that
	// key's hash (Runtime.hashKey). They are set when the segment is filed and
	// do not change while it is live, so a task may read them through its
	// access without holding the bank: the hash's low bits are how Handle
	// Finished learns which banks to lock.
	key   tableKey
	hash  uint64
	isOut bool
	ww    bool
	rdrs  int32
	// head and tail delimit the kick-off list: tasks waiting for the segment,
	// in arrival order, linked through the access each has on it (slot
	// headSlot of head, slot tailSlot of tail). waiting is its length.
	waiting  int32
	headSlot int32
	tailSlot int32
	head     *taskNode
	tail     *taskNode
	// poison records that a task ordered in this segment's history failed,
	// and why; every waiter popped afterwards is a transitive dependent and
	// is skipped. It dies with the segment: once the key drains and the
	// segment is deleted, later submissions start clean. (The boxed record
	// the tainted tasks share, not an error value: one word, which keeps the
	// segment in the 96-byte size class.)
	poison *taskFailure
	// nextFree links the segment into its bank's free list while it is
	// drained and recycled; nil while it is live.
	nextFree *segState
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
		seg.tail = nil
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

// defaultShards picks a bank count that gives low collision probability at
// full worker concurrency.
func defaultShards(workers int) int {
	n := 4 * workers
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return n
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New starts a runtime with the given configuration.
func New(cfg Config) *Runtime { return newRuntime(cfg, nil) }

// newRuntime applies the defaults and starts the workers. A non-nil funnel
// (NewMaestro) takes over all dependency resolution; the caller starts it.
func newRuntime(cfg Config, f *funnel) *Runtime {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.Shards <= 0 {
		cfg.Shards = defaultShards(cfg.Workers)
	}
	cfg.Shards = nextPow2(cfg.Shards)
	rt := &Runtime{
		cfg:     cfg,
		banks:   make([]bank, cfg.Shards),
		mask:    uint64(cfg.Shards - 1),
		segFree: max(segFreeMin, 2*cfg.Window/cfg.Shards),
		seed:    maphash.MakeSeed(),
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
// collisions. Its low bits pick the key's bank (bankOf), its high bits the
// home slot in that bank's table, and the segment keeps it for Handle
// Finished. This is the package's one branch on the kind of key: an address
// is hashed as 16 flat bytes, never through the interface path. Like map
// insertion, it panics for keys that are not comparable.
func (rt *Runtime) hashKey(k tableKey) uint64 {
	if k.other == nil {
		return maphash.Comparable(rt.seed, k.addrKey)
	}
	return maphash.Comparable(rt.seed, k)
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

// lockOrder is the node's bank acquisition order for Handle Finished, read
// off the segments in acc (the node's access slots) into buf. A spilled
// node kept the one Check Deps derived.
func (rt *Runtime) lockOrder(node *taskNode, acc []access, buf []int32) []int32 {
	if sp := node.spill; sp != nil {
		return sp.order
	}
	for i := range node.task.Deps {
		buf = append(buf, rt.bankOf(acc[i].seg.hash))
	}
	return sortedUnique(buf)
}

// lockBanks acquires the given sorted bank set; the global ascending order
// makes multi-bank acquisition deadlock-free. With BankCounters on, each
// acquisition first tries the uncontended fast path so blocked acquisitions
// can be counted separately; the acquisition order is identical.
func (rt *Runtime) lockBanks(banks []int32) {
	if rt.bankStats {
		for _, i := range banks {
			b := &rt.banks[i]
			b.acquisitions.Add(1)
			if b.mu.TryLock() {
				continue
			}
			b.contended.Add(1)
			b.mu.Lock()
		}
		return
	}
	for _, i := range banks {
		b := &rt.banks[i]
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
// from several goroutines are ordered by bank acquisition.
func (rt *Runtime) Submit(ctx context.Context, t Task) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.Do == nil {
		return nil, errNoDo
	}
	return rt.submitNode(ctx, newNode(ctx, &t))
}

// submitNode admits one node, waiting under ctx for its window token — and
// first for its scope's, when it has one — and gives it a handle of its own.
// A granted token is the licence to admit: from there on the path takes no
// lock and never looks at the stop, because Close cannot finish while the
// token is out.
func (rt *Runtime) submitNode(ctx context.Context, node *taskNode) (*Handle, error) {
	// Check cancellation before reserving, so a dead context is rejected
	// deterministically rather than sometimes admitted.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := node.task.scope
	if s != nil {
		if err := s.win.acquire(ctx, rt.stopped, 1); err != nil {
			return nil, err
		}
	}
	if err := rt.win.acquire(ctx, rt.stopped, 1); err != nil {
		if s != nil {
			s.win.release(1)
		}
		return nil, err
	}
	if s != nil {
		s.submitted.Add(1)
	}
	h := new(Handle)
	if rt.admit(node, h, rt.submitted.Add(1)-1) {
		rt.dispatch(node, -1)
	}
	return h, nil
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
	if rt.idleCh != nil && rt.win.count() == 0 {
		close(rt.idleCh)
		rt.idleCh = nil
	}
	rt.coord.Unlock()
}

// idle returns a channel that is closed once no task is in flight: at the
// next idle transition, or already when there is none now.
func (rt *Runtime) idle() <-chan struct{} {
	rt.coord.Lock()
	defer rt.coord.Unlock()
	if rt.win.count() == 0 {
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
// its handles one allocation (admitAll); Check Deps then runs task by
// task, each under its own banks exactly as in Submit, and the tasks found
// free of dependencies go to the workers 32 at a time, the last of them when
// the chunk ends. (Holding the union of a chunk's banks for the whole chunk
// was measured: every finishing worker parked behind the submitter for the
// duration.) It blocks while the window is full (cancelling ctx unblocks it)
// and returns the first validation error before admitting anything, or
// ErrStopped/ctx.Err() mid-batch; the returned handles cover the prefix that
// was admitted (all tasks on success). A handle the caller keeps keeps its
// chunk's handle block — at most chunkMax × 64 B, 16 KiB — and never a task
// node. A chunk's node block lives until its last task finishes, then waits
// on the runtime's free list, held weakly: the next chunk of its size class
// reuses it, or the next collection frees it.
func (rt *Runtime) SubmitAll(ctx context.Context, tasks []Task) ([]*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(ctx, tasks); err != nil {
		return nil, err
	}
	// After Close every admission path must uniformly report ErrStopped —
	// including a zero-length batch, which reserves nothing and would
	// otherwise return success.
	if rt.win.isShut() {
		return nil, ErrStopped
	}
	handles := make([]*Handle, 0, len(tasks))
	for len(tasks) > 0 {
		// Chunk so one reservation never asks for more tokens than exist.
		n := min(len(tasks), rt.cfg.Window, chunkMax)
		// The whole chunk's tokens are reserved in one step, all or nothing,
		// so two concurrent SubmitAll calls can never each hold a fraction of
		// the window and wait forever for the rest.
		if err := rt.win.acquire(ctx, rt.stopped, int64(n)); err != nil {
			return handles, err
		}
		handles = rt.admitAll(ctx, tasks[:n], handles)
		tasks = tasks[n:]
	}
	return handles, nil
}

// chunkMax is the most tasks an admission chunk holds: one window reservation
// in SubmitAll, one node block and one handle block in admitAll. It is the
// largest node block class (blockClasses).
const chunkMax = 256

// readyBatch is the most tasks admitAll hands to the ready queue at once.
const readyBatch = 32

// admitAll admits one chunk of tasks in order under ctx, appending their
// handles to handles; the caller holds their window tokens. The chunk's nodes
// are the entries of one node block — the Task Pool slots Nexus++ writes
// descriptors into, taken from the runtime's free list (takeBlock) — and its
// handles one new handle block. The node block lives as long as any task of
// the chunk does, which is why a finished node lets go of everything it
// points at (resolveFinished), and goes back to the free list when the last
// of them finishes, there to be reused or, if no chunk takes it before the
// next collection, collected. The handle block lives as long as the caller
// keeps a handle, and points at no node. The tasks admitAll finds free of
// dependencies reach the ready queue when readyBatch of them are collected,
// and the rest when the chunk ends — one lock, and at most one wake-up per
// task, for the batch instead of for each — out of a buffer that stays on
// this stack. (Handing over every readyBatch checks instead, however few
// were ready, was measured: more pushes, 2–4 % fewer tasks per second on
// the wavefront, and the same ready-to-run tail.)
func (rt *Runtime) admitAll(ctx context.Context, tasks []Task, handles []*Handle) []*Handle {
	first := rt.submitted.Add(uint64(len(tasks))) - uint64(len(tasks))
	blk, hs := rt.takeBlock(len(tasks)), make([]Handle, len(tasks))
	var buf [readyBatch]*taskNode
	batch := buf[:0]
	for i := range tasks {
		node, h := &blk.nodes[i], &hs[i]
		node.init(ctx, &tasks[i])
		node.blk = blk
		ready := rt.admit(node, h, first+uint64(i))
		handles = append(handles, h)
		switch {
		case !ready:
		case node.task.Do == nil:
			rt.dispatch(node, -1)
		default:
			batch = append(batch, node)
			if len(batch) == len(buf) {
				rt.ready.push(batch)
				batch = batch[:0]
			}
		}
	}
	if len(batch) > 0 {
		rt.ready.push(batch)
	}
	return handles
}

// errNoDo rejects a task submitted without a body.
var errNoDo = errors.New("starss: task has no Do function")

// validate rejects a batch holding a task without a body, naming the first,
// and a dead context — before anything is reserved.
func validate(ctx context.Context, tasks []Task) error {
	for i := range tasks {
		if tasks[i].Do == nil {
			return fmt.Errorf("task %d: %w", i, errNoDo)
		}
	}
	return ctx.Err()
}

// newNode is the node of one task admitted on its own, in an allocation of
// its own.
func newNode(ctx context.Context, t *Task) *taskNode {
	node := new(taskNode)
	node.init(ctx, t)
	return node
}

// init normalises task t, submitted under ctx, into the zero node.
func (node *taskNode) init(ctx context.Context, t *Task) {
	node.task, node.ctx = *t, ctx
	node.task.Deps = normalizeDeps(t.Deps)
	if n := len(node.task.Deps); n > inlineDeps {
		ints := make([]int32, (1+hashScratch)*n)
		node.spill = &spilled{acc: make([]access, n), nextSlot: ints[:n:n], scratch: ints[n:]}
	}
}

// admit gives the task its ID (submission index idx) and its handle h and
// hands it to Check Deps: in place, or through the maestro, which takes one
// task per rendezvous. The caller already holds the task's window token, and
// dispatches the task when admit reports it ready (the maestro dispatches its
// own). Otherwise the node is no longer the caller's to read: it may finish,
// and be cleared, before admit returns — the caller keeps h instead.
func (rt *Runtime) admit(node *taskNode, h *Handle, idx uint64) (ready bool) {
	h.name, h.index = node.task.Name, idx
	node.handle = h
	if f := rt.funnel; f != nil {
		f.submitCh <- node
		return false
	}
	return rt.resolveNew(node)
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

// hashScratch is the int32 words of scratch hashDeps needs per dependency:
// two for the hash, one for the bank.
const hashScratch = 3

// hashDeps hashes each dependency's key (in namespace ns) — the only time a
// task's keys are hashed — into scratch, which must hold hashScratch words
// per dependency: hashes holds the hash of deps[i] as words 2i and 2i+1
// (hashAt), order the sorted, deduplicated set of their banks, the task's
// acquisition order. (Halved, because a spilled task's scratch is the one
// int32 block it already allocates for its other per-dependency numbers.)
func (rt *Runtime) hashDeps(ns uint64, deps []Dep, scratch []int32) (hashes, order []int32) {
	n := len(deps)
	hashes, order = scratch[:2*n:2*n], scratch[2*n:3*n]
	for i, d := range deps {
		h := rt.hashKey(tableKeyOf(ns, d))
		hashes[2*i], hashes[2*i+1] = int32(h), int32(h>>32)
		order[i] = rt.bankOf(h)
	}
	return hashes, sortedUnique(order)
}

// hashAt reads hash i back out of hashDeps' words.
func hashAt(hashes []int32, i int) uint64 {
	return uint64(uint32(hashes[2*i])) | uint64(uint32(hashes[2*i+1]))<<32
}

// resolveNew runs Check Deps (Listing 2) for one task, holding the task's
// banks for this one task only, and reports whether the task came out free
// of dependencies: ready, for the caller to dispatch.
func (rt *Runtime) resolveNew(node *taskNode) (ready bool) {
	deps, ns := node.task.Deps, node.task.ns()
	var buf [hashScratch * inlineDeps]int32
	var hashes, order []int32
	if sp := node.spill; sp != nil {
		hashes, sp.order = rt.hashDeps(ns, deps, sp.scratch)
		order = sp.order
	} else {
		hashes, order = rt.hashDeps(ns, deps, buf[:])
	}
	if rt.rec != nil {
		first := -1
		if len(order) > 0 {
			first = int(order[0])
		}
		rt.rec.Emit(-1, obs.KindSubmit, node.handle.index, len(deps), first, -1)
	}
	rt.lockBanks(order)
	dc := rt.checkDeps(node, hashes)
	rt.unlockBanks(order)
	if dc > 0 {
		rt.hazards.Add(1)
		return false
	}
	rt.emit(-1, obs.KindReady, node, -1)
	return true
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

// checkDeps acquires or queues on every segment of the node, recording each
// in the node's access slots, and returns the resulting dependence count.
// hashes are hashDeps' words for task.Deps; the caller holds every bank they
// name. One probe per key either finds its segment or the slot to file a new
// one in.
func (rt *Runtime) checkDeps(node *taskNode, hashes []int32) int {
	dc, ns := 0, node.task.ns()
	acc, _ := node.slots()
	for i, d := range node.task.Deps {
		h := hashAt(hashes, i)
		b := &rt.banks[rt.bankOf(h)]
		key := tableKeyOf(ns, d)
		seg, at := b.table.find(h, key)
		wantsWrite := d.Mode != ModeIn
		if seg == nil {
			seg = b.takeSeg(key, h, at)
			if wantsWrite {
				seg.isOut = true
			} else {
				seg.rdrs = 1
			}
			acc[i].seg = seg
			continue
		}
		acc[i].seg = seg
		// A still-live poisoned segment taints every task that joins it —
		// reader or writer, queued or not — until the key drains and the
		// segment is deleted. Without this a reader sharing the segment
		// with already-skipped readers would run against data its failed
		// producer never wrote.
		if seg.poison != nil {
			node.poison.CompareAndSwap(nil, seg.poison)
		}
		if !wantsWrite && !seg.isOut && !seg.ww {
			seg.rdrs++
			continue
		}
		seg.enqueue(node, int32(i))
		dc++
		rt.noteQueueDepth(b, seg.waiting)
		if wantsWrite && !seg.isOut {
			seg.ww = true
		}
	}
	// The count must be published before the banks are released: a
	// finisher may pop this node from a kick-off list the moment the
	// bank unlocks. (A free task keeps the zero it was made with.)
	if dc > 0 {
		node.dc.Store(int32(dc))
	}
	return dc
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

// resolveFinished runs the Handle Finished path (SSIII-B) for one task:
// releases its segments, pops kick-off lists and dispatches any task whose
// dependence count reaches zero. It starts from the task and follows the
// segment pointers Check Deps left in its access slots: no key is hashed
// or even derived here — a drained segment is removed from the table by its
// own pointer and the hash it carries. A failed (or skipped) finisher
// poisons the segments it releases, so every waiter popped behind it — now
// or by a later finisher — is skipped as a transitive dependent while the
// kick-off lists drain normally. worker is the finishing worker's index, for
// the event stream.
//
// The first task it releases that has a body is not dispatched but returned:
// the caller runs it next — its data is what
// this task just touched — or, when it runs no bodies, queues it (finish).
func (rt *Runtime) resolveFinished(node *taskNode, worker int) (next *taskNode) {
	root := node.rootCause()
	// Most finishers release at most a few waiters; keep them off the heap.
	var buf [8]*taskNode
	released := buf[:0]
	acc, _ := node.slots()
	var orderBuf [inlineDeps]int32
	order := rt.lockOrder(node, acc, orderBuf[:0])
	rt.lockBanks(order)
	for i, d := range node.task.Deps {
		seg := acc[i].seg
		b := &rt.banks[rt.bankOf(seg.hash)]
		if root != nil && seg.poison == nil {
			seg.poison = root
		}
		if d.Mode == ModeIn {
			seg.rdrs--
			if seg.rdrs > 0 {
				continue
			}
			if !seg.ww {
				b.dropSeg(seg, rt.segFree)
				continue
			}
			seg.isOut = true
			seg.ww = false
			released = seg.pop(released)
			continue
		}
		seg.isOut = false
		if seg.head == nil {
			b.dropSeg(seg, rt.segFree)
			continue
		}
		if seg.headWrites() {
			seg.isOut = true
			released = seg.pop(released)
			continue
		}
		for seg.head != nil && !seg.headWrites() {
			seg.rdrs++
			released = seg.pop(released)
		}
		if seg.head != nil {
			seg.ww = true
		}
	}
	rt.unlockBanks(order)
	// A released task goes to the workers at once — except the caller's
	// successor, and a WaitOn, which dispatch would finish on the spot: its
	// caller expects to find this task done, so it is held back until this
	// task's handle is published.
	held := released[:0]
	for _, n := range released {
		rt.emit(worker, obs.KindReady, n, worker)
		switch {
		case n.task.Do == nil:
			held = append(held, n)
		case next == nil:
			next = n
		default:
			rt.dispatch(n, worker)
		}
	}
	// The one place a task is declared executed, failed or skipped: by what
	// the runtime did with it, never by what its error looks like.
	o := Executed
	switch {
	case node.wasSkipped:
		o = Skipped
	case node.err != nil:
		o = Failed
		rt.firstErr.CompareAndSwap(nil, &taskFailure{err: node.err})
	}
	rt.record(o)
	h, err, s, blk := node.handle, node.err, node.task.scope, node.blk
	// The finished node lets go of everything it points at: a node of a
	// SubmitAll chunk shares its block with its chunk-mates, and one of them
	// still running would otherwise pin this task's body, context and
	// dependencies. Nobody reads the node from here on, and whoever the
	// handle wakes finds it cleared — and its block listed free, when this
	// was the chunk's last task.
	*node = taskNode{}
	if blk != nil && blk.live.Add(-1) == 0 {
		rt.putBlock(blk)
	}
	if s != nil {
		s.taskDone(o, err)
	}
	// Publish the handle before the token goes back: a barrier that sees
	// in-flight reach zero must find every handle complete.
	h.complete(o, err)
	rt.returnTokens(1)
	for _, n := range held {
		rt.dispatch(n, worker)
	}
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
		Retried:     rt.retried.Load(),
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

// shortDeps is the longest dependency list checked for duplicate keys by
// pairwise comparison instead of through a map.
const shortDeps = 8

// normalizeDeps merges duplicate keys: any read + any write on the same key
// becomes inout, duplicate same-mode entries collapse. A list without
// duplicates — the common case — is returned as is, not copied.
func normalizeDeps(deps []Dep) []Dep {
	if len(deps) <= shortDeps && !hasDuplicateKey(deps) {
		return deps
	}
	out := make([]Dep, 0, len(deps))
	index := make(map[tableKey]int, len(deps))
	for _, d := range deps {
		k := tableKeyOf(0, d)
		i, seen := index[k]
		if !seen {
			index[k] = len(out)
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

// hasDuplicateKey compares every pair of table keys of at most shortDeps
// dependencies. Like a map insertion, the comparison panics for keys that
// are not comparable.
func hasDuplicateKey(deps []Dep) bool {
	if len(deps) < 2 {
		return false
	}
	var keys [shortDeps]tableKey
	for i, d := range deps {
		keys[i] = tableKeyOf(0, d)
		for j := 0; j < i; j++ {
			if keys[i] == keys[j] {
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
// them — Get Inputs, then the body and Put Outputs (runBody) — and after
// each, the successor its Handle Finished released, without a trip through
// the queue, for up to successorRun in a row. id is the worker's index — its
// event-stream lane.
func (rt *Runtime) worker(id int) {
	defer rt.workerWG.Done()
	for {
		node, ok := rt.ready.pop()
		if !ok {
			return
		}
		for run := 0; node != nil; run++ {
			prefetchNode(node)
			node = rt.runBody(node, id)
			if node != nil && run == successorRun {
				rt.dispatch(node, id)
				break
			}
		}
	}
}

// prefetchNode runs the Get Inputs phase unless the task will not run. A
// panicking Prefetch is recorded as the node's failure — the worker then
// skips the body — instead of killing the goroutine it ran on.
func prefetchNode(node *taskNode) {
	if node.task.Prefetch == nil {
		return
	}
	if node.poison.Load() != nil || node.ctx.Err() != nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			node.err = fmt.Errorf("%w: task %q (in Prefetch): %v", ErrTaskPanicked, node.handle.Name(), r)
		}
	}()
	node.task.Prefetch()
}

// runBody executes one node on worker id and resolves its completion,
// returning the successor the worker is to run next, if it released one.
func (rt *Runtime) runBody(node *taskNode, id int) (next *taskNode) {
	if inj := rt.cfg.Faults; inj != nil {
		// A slow bank: the task is ready but its kick-off is delayed.
		if d := inj.Delay(faults.SiteKickoffDelay, node.handle.index); d > 0 {
			time.Sleep(d)
		}
	}
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
// Execution itself (fault injection, deadlines, retries) lives in runNode
// (exec.go).
func (rt *Runtime) execute(node *taskNode, lane int) {
	rt.emit(lane, obs.KindRun, node, lane)
	rt.runNode(node, lane)
	if node.wasSkipped {
		rt.emit(lane, obs.KindPoison, node, lane)
	} else {
		rt.emit(lane, obs.KindFinish, node, lane)
	}
}
