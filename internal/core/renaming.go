package core

import "fmt"

// Renaming support — the extension the paper points at in SSIII-B:
// "Although the WAR hazards and the write-after-write WAW hazards are false
// dependencies and are normally resolved using renaming techniques, Nexus++
// supports them as a safe guard."
//
// With renaming enabled, a *pure writer* (out parameter) arriving at a busy
// segment does not wait: the Dependence Table opens a fresh version of the
// segment and grants the writer immediately, eliminating its WAR and WAW
// hazards. Readers and inout tasks keep the classic protocol on the version
// that was current when they were submitted — their value dependencies are
// real. Demoted versions retire as soon as their last user finishes.
//
// The cost is table pressure: every live version occupies a slot, which is
// exactly why a small hardware table prefers enforcing the false
// dependencies — the trade-off the ablation-renaming experiment measures.
//
// Tasks must remember which version of each segment they were bound to
// (hardware would carry a version tag in the descriptor), so
// ProcessNewVersioned returns the version index and Handle Finished passes
// it back to ProcessFinishedVersioned.

// EnableRenaming switches the table into renaming mode. It must be called
// before any task is processed.
func (dt *DepTable) EnableRenaming() {
	if dt.used != 0 {
		panic("core: EnableRenaming on a non-empty Dependence Table")
	}
	dt.renaming = true
}

// Renaming reports whether renaming mode is active.
func (dt *DepTable) Renaming() bool { return dt.renaming }

// RenamedVersions returns how many fresh versions pure writers opened.
func (dt *DepTable) RenamedVersions() uint64 { return dt.renamedVersions }

// ProcessNewVersioned implements Listing 2 under renaming for one
// parameter. It returns the version index the task was bound to, whether
// access was granted immediately, the number of table accesses, and
// whether the operation stalled on a full table.
func (dt *DepTable) ProcessNewVersioned(task int32, addr uint64, size uint32, mode paramMode) (version int32, granted bool, accesses int, stalled bool) {
	if !dt.renaming {
		panic("core: ProcessNewVersioned without renaming mode")
	}
	idx, walk, found := dt.lookup(addr)
	accesses = 1 + walk
	if !found {
		if !dt.takeSlot() {
			dt.fullStalls++
			return -1, false, accesses, true
		}
		idx = dt.insert(addr, size)
		e := &dt.entries[idx]
		accesses++
		if mode == paramIn {
			e.rdrs = 1
		} else {
			e.isOut = true
		}
		return idx, true, accesses, false
	}
	e := &dt.entries[idx]
	switch mode {
	case paramIn:
		if !e.isOut && !e.ww {
			e.rdrs++
			accesses++
			return idx, true, accesses, false
		}
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
	case paramInOut:
		// The read side is a true dependency: classic writer protocol.
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
			e.ww = true
		}
		return idx, false, accesses, false
	default: // paramOut: rename instead of waiting.
		if !dt.takeSlot() {
			dt.fullStalls++
			return -1, false, accesses, true
		}
		e.current = false
		dt.live--
		nv := dt.insert(addr, size)
		dt.entries[nv].isOut = true
		dt.renamedVersions++
		accesses += 2 // demote + insert
		return nv, true, accesses, false
	}
}

// ProcessFinishedVersioned retires one parameter access of a finished task
// against the version it was bound to, with the classic grant rules; empty
// versions retire whether current or demoted. Its grants, like
// ProcessFinished's, are reused by the next call.
func (dt *DepTable) ProcessFinishedVersioned(task int32, version int32, wasWriter bool) (grants []Grant, accesses int) {
	if !dt.renaming {
		panic("core: ProcessFinishedVersioned without renaming mode")
	}
	e := &dt.entries[version]
	if !e.live {
		panic(fmt.Sprintf("core: finished task %d references dead version %d", task, version))
	}
	accesses = 1
	if !wasWriter {
		if e.rdrs <= 0 {
			panic(fmt.Sprintf("core: reader count underflow on version %d of %#x", version, e.addr))
		}
		e.rdrs--
		accesses++
		if e.rdrs > 0 {
			return nil, accesses
		}
		if !e.ww {
			dt.retireIfEmpty(version)
			accesses++
			return nil, accesses
		}
		it, promoted := dt.koPop(e)
		accesses++
		if promoted {
			accesses++
		}
		if !it.wantsWrite {
			panic(fmt.Sprintf("core: ww set on version of %#x but kick-off head is a reader", e.addr))
		}
		e.isOut = true
		e.ww = false
		return dt.grant(it.task), accesses
	}
	// Writer finished on this version.
	e.isOut = false
	if e.waiters() == 0 {
		dt.retireIfEmpty(version)
		accesses++
		return nil, accesses
	}
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
		accesses += 2
		if promoted {
			accesses++
		}
		e.rdrs++
		grants = append(grants, Grant{Task: it.task})
	}
	dt.grants = grants
	if e.waiters() > 0 {
		e.ww = true
		accesses++
	}
	return grants, accesses
}

// retireIfEmpty removes a version with no users and no waiters.
func (dt *DepTable) retireIfEmpty(version int32) {
	e := &dt.entries[version]
	if e.isOut || e.rdrs > 0 || e.waiters() > 0 || e.ww {
		return
	}
	dt.remove(version)
}

// paramMode is the three-way access mode used by the renaming paths.
type paramMode uint8

const (
	paramIn paramMode = iota
	paramOut
	paramInOut
)
