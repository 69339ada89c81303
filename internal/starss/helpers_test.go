package starss

import (
	"context"
	"fmt"
	"testing"
)

// mustClose shuts the runtime down and fails the test if Close reports a
// task failure. Close is the run's last error barrier (it returns the
// first root-cause failure), so tests that are not exercising the error
// path must not drop its result — nexusvet's handleleak analyzer enforces
// exactly that. Tests that expect failures check Close inline instead.
func mustClose(t testing.TB, rt interface{ Close() error }) {
	t.Helper()
	if err := rt.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// Named addresses for the tests' data, far above the small indices other
// tests name theirs by, so that the two never alias.
const (
	addrK uint64 = 1<<32 + 64*iota
	addrK2
	addrA
	addrB
	addrC
	addrX
	addrY
	addrZ
	addrV
	addrChain
	addrShared
	addrBlock
	addrMatrix
	addrRelay
	addrOther
	addrUnused
	addrIndependent
)

// do adapts a body that takes no context and cannot fail to Task.Do.
func do(f func()) func(context.Context) error {
	return func(context.Context) error { f(); return nil }
}

// fenceMaestro returns once every task submitted so far has been through
// Check Deps. On the sharded runtime that is when Submit returns; the
// maestro's Submit returns at the rendezvous, so the test sends a WaitOn
// after them, on an address in a namespace of its own: the maestro resolves
// in arrival order.
func fenceMaestro(t testing.TB, rt *Runtime) {
	t.Helper()
	if rt.funnel == nil {
		return
	}
	if err := rt.Scope("fence").WaitOn(context.Background(), 0); err != nil {
		t.Fatalf("fence: %v", err)
	}
}

// segFields formats a segment field by field: the struct holds an atomic,
// which is not to be copied, not even into a print call.
func segFields(seg *segState) string {
	return fmt.Sprintf("{key:%v hash:%#x state:%#x waiting:%d head:%p/%d tail:%p/%d poison:%v nextFree:%p}",
		seg.key, seg.hash, seg.state.Load(), seg.waiting, seg.head, seg.headSlot, seg.tail, seg.tailSlot, seg.poison, seg.nextFree)
}

// liveKeys counts the segments bank b files for keys with a holder or a
// waiter, leaving out the retired ones no sweep has taken out yet.
func liveKeys(rt *Runtime, b int) int {
	bk := &rt.banks[b]
	bk.mu.Lock()
	defer bk.mu.Unlock()
	n := 0
	for _, s := range bk.table.slots {
		if s.seg != nil && s.seg.state.Load() != segRetired {
			n++
		}
	}
	return n
}
