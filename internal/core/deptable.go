package core

import (
	"fmt"

	"nexuspp/internal/trace"
)

// FatalModelError aborts a simulation from deep inside a hardware block:
// the modeled machine cannot execute the workload at all (for example a
// hard structure limit was exceeded with the dummy mechanisms disabled).
// It is thrown as a panic and converted to an error by System.Run.
type FatalModelError struct {
	Reason string
}

func (e FatalModelError) Error() string { return "core: " + e.Reason }

// DepTable is the Dependence Table of the paper's Table III: a hash table
// with separate chaining in which every memory segment accessed by an
// in-flight task has an entry carrying its access state (isOut, readers
// count, writer-waits flag) and a kick-off list of waiting task IDs.
// Kick-off lists longer than KickOffSlots chain dummy entries, each of
// which consumes a table slot; when the first segment of a chain drains,
// the next dummy is promoted to parent and the slot is reused — the
// mechanism of SSIII-C.
//
// Semantics implement Listing 2 (Check Deps) and the Handle Finished rules
// of SSIII-B, including WAR/WAW enforcement via the ww flag (Nexus++
// supports the false dependencies "as a safe guard" instead of renaming;
// renaming is an ablation, see ProcessNew).
//
// The bucket chains are the table's only index, as in the hardware: a
// lookup walks its bucket, and the walk is what the access count charges.
type DepTable struct {
	slots    int // total entry capacity, parents + dummy segments
	koSlots  int
	strictKO bool // original-Nexus mode: no dummy entries, overflow is fatal
	// renaming lets a pure writer open a fresh version of a busy segment
	// instead of waiting (Config.RenameFalseDeps, see ProcessNew).
	renaming bool

	used     int
	live     int       // current entries: one per live address
	buckets  [][]int32 // collision chains of live entry indices
	nBuckets int
	entries  []dtEntry
	freeIdx  []int32
	grants   []Grant // ProcessFinished's result, reused by every call
	onFree   func()  // called whenever slots are released

	// Statistics.
	maxOccupancy  int
	maxChain      int
	maxKOSegments int
	dummySegments uint64
	fullStalls    uint64
}

type koItem struct {
	task       int32
	wantsWrite bool
}

type dtEntry struct {
	live   bool
	addr   uint64
	size   uint32
	isOut  bool
	rdrs   int
	ww     bool
	bucket int32
	// current marks the version of an address a lookup finds: every
	// entry is current until renaming demotes it, and a demoted version
	// serves its remaining users and then retires.
	current bool
	// Kick-off list state. ko[koHead:] is the logical queue (the popped
	// front stays as spare capacity until the queue empties); segs is the
	// number of physical segments (1 parent + segs-1 dummy entries),
	// frontDrained the number of already-read slots in the front segment.
	ko           []koItem
	koHead       int
	segs         int
	frontDrained int
}

// waiters returns the number of tasks on e's kick-off list.
func (e *dtEntry) waiters() int { return len(e.ko) - e.koHead }

// head returns the first waiter on e's kick-off list.
func (e *dtEntry) head() koItem { return e.ko[e.koHead] }

// Grant reports a task released from a kick-off list by Handle Finished.
type Grant struct {
	Task int32
}

// NewDepTable returns an empty table with the given slot and kick-off-list
// capacities.
func NewDepTable(slots, koSlots int) *DepTable {
	dt := &DepTable{
		slots:    slots,
		koSlots:  koSlots,
		nBuckets: slots,
		buckets:  make([][]int32, slots),
	}
	return dt
}

// Live returns the number of live addresses (current parent entries).
func (dt *DepTable) Live() int { return dt.live }

// HasFree reports whether at least one slot is unoccupied.
func (dt *DepTable) HasFree() bool { return dt.used < dt.slots }

// Used returns the number of occupied slots (parents plus dummy segments).
func (dt *DepTable) Used() int { return dt.used }

// MaxOccupancy returns the highest slot occupancy observed.
func (dt *DepTable) MaxOccupancy() int { return dt.maxOccupancy }

// MaxChain returns the longest hash-collision chain observed.
func (dt *DepTable) MaxChain() int { return dt.maxChain }

// MaxKOSegments returns the longest kick-off chain (in segments) observed.
func (dt *DepTable) MaxKOSegments() int { return dt.maxKOSegments }

// DummySegments returns the number of dummy entries ever chained.
func (dt *DepTable) DummySegments() uint64 { return dt.dummySegments }

// FullStalls returns how many operations stalled on a full table.
func (dt *DepTable) FullStalls() uint64 { return dt.fullStalls }

// OnFree sets the callback invoked whenever slots are released, used by
// the Check Deps block to retry stalled operations.
func (dt *DepTable) OnFree(fn func()) { dt.onFree = fn }

func (dt *DepTable) hash(addr uint64) int {
	// Full-avalanche mix (splitmix64 finalizer) over the segment base
	// address. Base addresses are block-aligned, so their low bits are
	// zero; a plain multiplicative hash reduced modulo the table size
	// would keep only those dead low bits and collapse every segment into
	// a handful of buckets, exactly the long-chain pathology Figure 6
	// warns about.
	x := addr
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return int(x % uint64(dt.nBuckets))
}

func (dt *DepTable) takeSlot() bool {
	if dt.used >= dt.slots {
		return false
	}
	dt.used++
	if dt.used > dt.maxOccupancy {
		dt.maxOccupancy = dt.used
	}
	return true
}

func (dt *DepTable) releaseSlots(n int) {
	dt.used -= n
	if dt.used < 0 {
		panic("core: Dependence Table slot accounting went negative")
	}
	if dt.onFree != nil {
		dt.onFree()
	}
}

// lookup finds the *current* entry index of addr and the number of chain
// positions walked (>= 1 even when the bucket is empty). In renaming mode a
// bucket may also hold demoted versions of the address; only the current
// one matches.
func (dt *DepTable) lookup(addr uint64) (idx int32, walk int, found bool) {
	chain := dt.buckets[dt.hash(addr)]
	for i, ei := range chain {
		if e := &dt.entries[ei]; e.addr == addr && e.current {
			return ei, i + 1, true
		}
	}
	return -1, max(len(chain), 1), false
}

// insert creates the current parent entry for addr; the caller must have
// verified space with takeSlot.
func (dt *DepTable) insert(addr uint64, size uint32) int32 {
	var idx int32
	if n := len(dt.freeIdx); n > 0 {
		idx = dt.freeIdx[n-1]
		dt.freeIdx = dt.freeIdx[:n-1]
	} else {
		idx = int32(len(dt.entries))
		dt.entries = append(dt.entries, dtEntry{})
	}
	b := dt.hash(addr)
	// A reused entry keeps its kick-off storage.
	ko := dt.entries[idx].ko[:0]
	dt.entries[idx] = dtEntry{live: true, addr: addr, size: size, bucket: int32(b), current: true, ko: ko, segs: 1}
	dt.buckets[b] = append(dt.buckets[b], idx)
	if l := len(dt.buckets[b]); l > dt.maxChain {
		dt.maxChain = l
	}
	dt.live++
	return idx
}

// remove deletes the entry, current or demoted, and releases all its slots.
func (dt *DepTable) remove(idx int32) {
	e := &dt.entries[idx]
	if e.waiters() != 0 || e.ww {
		panic("core: removing Dependence Table entry with waiting tasks")
	}
	if e.current {
		dt.live--
	}
	segs := e.segs
	b := e.bucket
	chain := dt.buckets[b]
	for i, ei := range chain {
		if ei == idx {
			dt.buckets[b] = append(chain[:i], chain[i+1:]...)
			break
		}
	}
	*e = dtEntry{ko: e.ko[:0]}
	dt.freeIdx = append(dt.freeIdx, idx)
	dt.releaseSlots(segs)
}

// koCapacity returns the current kick-off capacity of e.
func (dt *DepTable) koCapacity(e *dtEntry) int {
	return e.segs*dt.koSlots - e.frontDrained
}

// grant returns dt.grants holding task alone.
func (dt *DepTable) grant(task int32) []Grant {
	dt.grants = append(dt.grants[:0], Grant{Task: task})
	return dt.grants
}

// koAppend enqueues a waiter, growing the chain with a dummy entry when the
// current segments are full. It reports (ok=false) without mutating when a
// new segment is needed but the table is full.
func (dt *DepTable) koAppend(e *dtEntry, it koItem) (grew bool, ok bool) {
	if e.waiters() >= dt.koCapacity(e) {
		if dt.strictKO {
			panic(FatalModelError{Reason: fmt.Sprintf(
				"kick-off list of segment %#x exceeds its %d fixed slots and dummy entries are disabled (original-Nexus limit)",
				e.addr, dt.koSlots)})
		}
		if !dt.takeSlot() {
			return false, false
		}
		e.segs++
		dt.dummySegments++
		if e.segs > dt.maxKOSegments {
			dt.maxKOSegments = e.segs
		}
		grew = true
	}
	if len(e.ko) == cap(e.ko) && e.koHead > 0 {
		// Reuse the popped front before growing.
		e.ko = e.ko[:copy(e.ko, e.ko[e.koHead:])]
		e.koHead = 0
	}
	e.ko = append(e.ko, it)
	return grew, true
}

// koPop dequeues the head waiter and applies the paper's parent-promotion:
// when the front segment is fully drained and dummies remain, the dummy
// becomes the new parent and a slot is released. It returns the item and
// whether a promotion (an extra copy access) happened.
func (dt *DepTable) koPop(e *dtEntry) (koItem, bool) {
	it := e.head()
	if e.koHead++; e.koHead == len(e.ko) {
		e.ko, e.koHead = e.ko[:0], 0
	}
	e.frontDrained++
	if e.frontDrained >= dt.koSlots && e.segs > 1 {
		e.segs--
		e.frontDrained = 0
		dt.releaseSlots(1)
		return it, true
	}
	if e.waiters() == 0 && e.frontDrained > 0 && e.segs == 1 {
		// Empty single-segment list: reset the drain cursor.
		e.frontDrained = 0
	}
	return it, false
}

// ProcessNew implements Listing 2 for one parameter of a newly submitted
// task. It returns the entry the task was bound to, whether the task was
// granted immediate access to the segment (granted == false means it was
// enqueued on the kick-off list and the caller must increment the task's
// dependence counter), the number of table accesses performed (for
// service-time accounting), and whether the operation stalled on a full
// table (nothing is mutated in that case).
func (dt *DepTable) ProcessNew(task int32, addr uint64, size uint32, mode trace.AccessMode) (entry int32, granted bool, accesses int, stalled bool) {
	idx, walk, found := dt.lookup(addr)
	accesses = 1 + walk // hash + chain walk
	if !found {
		if !dt.takeSlot() {
			dt.fullStalls++
			return -1, false, accesses, true
		}
		idx = dt.insert(addr, size)
		e := &dt.entries[idx]
		accesses++
		if mode.Writes() {
			e.isOut = true // Listing 2 branch 2'
		} else {
			e.rdrs = 1 // Listing 2 branch 2
		}
		return idx, true, accesses, false
	}
	e := &dt.entries[idx]
	if !mode.Writes() {
		if !e.isOut && !e.ww { // Listing 2 branch 4: read granted
			e.rdrs++
			accesses++
			return idx, true, accesses, false
		}
		// Branch 4': wait behind the writer.
		grew, ok := dt.koAppend(e, koItem{task: task})
		if !ok {
			dt.fullStalls++
			return -1, false, accesses, true
		}
		accesses++
		if grew {
			accesses++
		}
		return idx, false, accesses, false
	}
	if mode == trace.Out && dt.renaming {
		// Renaming, the alternative the paper names in SSIII-B ("the WAR
		// hazards and the write-after-write WAW hazards are false
		// dependencies and are normally resolved using renaming
		// techniques"): a pure writer does not wait. It demotes the busy
		// segment, which keeps serving the users bound to it and retires
		// after the last of them, and opens a fresh current version it
		// owns. Readers and inout writers keep Listing 2 on the current
		// version, since their dependencies are real. Every live version
		// holds a slot, the table pressure that makes a small hardware
		// table prefer the safe guard; ablation-renaming measures it.
		if !dt.takeSlot() {
			dt.fullStalls++
			return -1, false, accesses, true
		}
		e.current = false
		dt.live--
		idx = dt.insert(addr, size)
		dt.entries[idx].isOut = true
		accesses += 2 // demote + insert
		return idx, true, accesses, false
	}
	// Branch 3': writers always wait behind the current owner.
	grew, ok := dt.koAppend(e, koItem{task: task, wantsWrite: true})
	if !ok {
		dt.fullStalls++
		return -1, false, accesses, true
	}
	accesses++
	if grew {
		accesses++
	}
	if !e.isOut {
		e.ww = true // a writer waits behind active readers (WAR)
	}
	return idx, false, accesses, false
}

// ProcessFinished implements the Handle Finished rules for one parameter of
// a completed task. It returns the tasks granted access from the kick-off
// list (the caller decrements their dependence counters) and the number of
// table accesses performed. It never stalls: draining only releases slots.
// The returned slice is reused by the next call.
//
// Without renaming the segment is found by address, at the cost of the
// chain walk, and entry is ignored. Under renaming the task passes back the
// entry ProcessNew bound it to (hardware would carry a version tag in the
// descriptor), which may be a demoted version, and no chain is walked.
func (dt *DepTable) ProcessFinished(task int32, addr uint64, entry int32, wasWriter bool) (grants []Grant, accesses int) {
	idx, walk := entry, 0
	if !dt.renaming {
		idx, walk, _ = dt.lookup(addr)
	}
	if idx < 0 || !dt.entries[idx].live || dt.entries[idx].addr != addr {
		panic(fmt.Sprintf("core: finished task %d references unknown segment %#x", task, addr))
	}
	accesses = 1 + walk
	e := &dt.entries[idx]
	if !wasWriter {
		// Reader finished.
		if e.rdrs <= 0 {
			panic(fmt.Sprintf("core: reader count underflow on segment %#x", addr))
		}
		e.rdrs--
		accesses++
		if e.rdrs > 0 {
			return nil, accesses
		}
		if !e.ww {
			if e.waiters() != 0 {
				panic(fmt.Sprintf("core: segment %#x has waiters but no writer-waits flag", addr))
			}
			dt.remove(idx)
			accesses++
			return nil, accesses
		}
		// The pending writer takes over.
		it, promoted := dt.koPop(e)
		accesses++
		if promoted {
			accesses++
		}
		if !it.wantsWrite {
			panic(fmt.Sprintf("core: ww set on %#x but kick-off head is a reader", addr))
		}
		e.isOut = true
		e.ww = false
		return dt.grant(it.task), accesses
	}
	// Writer finished.
	e.isOut = false
	if e.waiters() == 0 {
		dt.remove(idx)
		accesses++
		return nil, accesses
	}
	// Read waiters off the list while they are readers; stop at a writer
	// (which then waits on the new readers) or grant a writer immediately
	// when it is first.
	if e.head().wantsWrite {
		it, promoted := dt.koPop(e)
		accesses++
		if promoted {
			accesses++
		}
		e.isOut = true
		return dt.grant(it.task), accesses
	}
	grants = dt.grants[:0]
	for e.waiters() > 0 && !e.head().wantsWrite {
		it, promoted := dt.koPop(e)
		accesses += 2 // pop + readers-count increment
		if promoted {
			accesses++
		}
		e.rdrs++
		grants = append(grants, Grant{Task: it.task})
	}
	dt.grants = grants
	if e.waiters() > 0 {
		// A writer remains behind the newly granted readers.
		e.ww = true
		accesses++
	}
	return grants, accesses
}

// checkInvariants verifies internal consistency; tests call it after
// mutation sequences, and System.Run after every run. Every entry of an
// address hashes to the same bucket, so "one current entry per address"
// is checked chain by chain.
func (dt *DepTable) checkInvariants() error {
	used, live, chained := 0, 0, 0
	for b, chain := range dt.buckets {
		chained += len(chain)
		for i, ei := range chain {
			e := &dt.entries[ei]
			if !e.live || int(e.bucket) != b || dt.hash(e.addr) != b {
				return fmt.Errorf("deptable: bucket %d holds entry %d (live %v, bucket %d)", b, ei, e.live, e.bucket)
			}
			if !e.current {
				continue
			}
			live++
			for _, ej := range chain[i+1:] {
				if o := &dt.entries[ej]; o.current && o.addr == e.addr {
					return fmt.Errorf("deptable: %#x has two current entries", e.addr)
				}
			}
			if idx, _, ok := dt.lookup(e.addr); !ok || idx != ei {
				return fmt.Errorf("deptable: lookup of %#x misses its current entry %d", e.addr, ei)
			}
		}
	}
	if live != dt.live {
		return fmt.Errorf("deptable: Live() = %d but %d entries are current", dt.live, live)
	}
	for i := range dt.entries {
		e := &dt.entries[i]
		if !e.live {
			continue
		}
		chained--
		used += e.segs
		a := e.addr
		if !dt.renaming && !e.current {
			return fmt.Errorf("deptable: entry %d for %#x demoted without renaming", i, a)
		}
		if !e.current && e.rdrs == 0 && !e.isOut && e.waiters() == 0 && !e.ww {
			return fmt.Errorf("deptable: demoted version of %#x is empty but not retired", a)
		}
		if e.ww && e.waiters() == 0 {
			return fmt.Errorf("deptable: %#x has ww without waiters", a)
		}
		if !e.isOut && !e.ww && e.waiters() > 0 {
			return fmt.Errorf("deptable: %#x has waiters with no owner conflict", a)
		}
		if e.isOut && e.rdrs > 0 {
			return fmt.Errorf("deptable: %#x is owned by a writer but has readers", a)
		}
		need := e.waiters() + e.frontDrained
		if need > e.segs*dt.koSlots {
			return fmt.Errorf("deptable: %#x kick-off accounting broken", a)
		}
	}
	if chained != 0 {
		return fmt.Errorf("deptable: bucket chains and live entries differ by %d", chained)
	}
	if used != dt.used {
		return fmt.Errorf("deptable: used = %d but entries account for %d", dt.used, used)
	}
	return nil
}
