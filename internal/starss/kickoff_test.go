package starss

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// Tests for the intrusive kick-off list: a segment's waiters are linked
// through the access slots inside their own nodes, inline for up to
// inlineDeps dependencies and in the spilled block above.

const (
	hotKey   uint64 = 0x100 // every task of the scenario touches it
	sideKey  uint64 = 0x200 // some also touch this one, at another slot
	privBase uint64 = 0x1_0000
)

// deepQueue is one hot key with a deep mixed queue behind a gate task:
// rounds of a writer followed by readers, the tasks cycling through three
// shapes — the hot key alone; three keys with the hot key in the middle; and
// seven (more than inlineDeps, so the spilled layout), the hot key at slot
// 3 and the side key at slot 5, which puts those tasks on two kick-off lists
// at once. The private keys are never shared. Task 0 is the gate: it writes
// both shared keys, so everything behind it queues on each one it touches.
func deepQueue(rounds, readers int) []trace.TaskSpec {
	priv := privBase
	private := func(mode trace.AccessMode) trace.Param {
		priv += 64
		return trace.Param{Addr: priv, Size: 64, Mode: mode}
	}
	specs := []trace.TaskSpec{{ID: 0, Params: []trace.Param{
		{Addr: hotKey, Size: 64, Mode: trace.InOut},
		{Addr: sideKey, Size: 64, Mode: trace.InOut},
	}}}
	add := func(mode trace.AccessMode) {
		id := uint64(len(specs))
		hot := trace.Param{Addr: hotKey, Size: 64, Mode: mode}
		var params []trace.Param
		switch id % 3 {
		case 0:
			params = []trace.Param{hot}
		case 1:
			params = []trace.Param{private(trace.Out), hot, private(trace.In)}
		default:
			side := trace.Param{Addr: sideKey, Size: 64, Mode: trace.In}
			if id%2 == 0 {
				side.Mode = trace.InOut
			}
			params = []trace.Param{
				private(trace.Out), private(trace.In), private(trace.Out),
				hot, private(trace.InOut), side, private(trace.Out),
			}
		}
		specs = append(specs, trace.TaskSpec{ID: id, Params: params})
	}
	for r := 0; r < rounds; r++ {
		add(trace.InOut)
		for i := 0; i < readers; i++ {
			add(trace.In)
		}
	}
	return specs
}

// descendants returns the transitive successors of task idx in the oracle.
func descendants(g *depgraph.Graph, idx int) map[int]bool {
	seen := make(map[int]bool)
	stack := append([]int32(nil), g.Succs(idx)...)
	for len(stack) > 0 {
		t := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if !seen[t] {
			seen[t] = true
			stack = append(stack, g.Succs(t)...)
		}
	}
	return seen
}

// TestKickoffDeepMixedQueue drains the deep queue with a writer in the
// middle failing and checks the run against the dependency-graph oracle:
// every executed task started after all of its executed predecessors ended
// (RAW, WAR and WAW alike), the skipped tasks are exactly the failed
// writer's descendants, and the deepest kick-off list the bank counters saw
// is the known one — everything but the gate, queued on the hot key.
func TestKickoffDeepMixedQueue(t *testing.T) {
	specs := deepQueue(6, 5)
	g := depgraph.Build(workload.FromTrace(&trace.Trace{Tasks: specs}))
	failing := 1 + 3*(1+5) // the fourth round's writer
	if specs[failing].Params[len(specs[failing].Params)/2].Mode != trace.InOut {
		t.Fatalf("task %d is not a writer of the hot key", failing)
	}
	doomed := descendants(g, failing)
	if len(doomed) != len(specs)-1-failing {
		t.Fatalf("oracle: %d descendants, want everything queued behind task %d (%d)",
			len(doomed), failing, len(specs)-1-failing)
	}
	for name, rt := range newRuntimes(Config{Workers: 4, Window: 2 * len(specs), BankCounters: true}) {
		t.Run(name, func(t *testing.T) {
			var clock atomic.Int64
			started, ended := make([]int64, len(specs)), make([]int64, len(specs))
			gate := make(chan struct{})
			handles := make([]*Handle, len(specs))
			for i, spec := range specs {
				task := TaskFromSpec(spec, ReplayOptions{ZeroCost: true})
				task.Do = func(context.Context) error {
					started[i] = clock.Add(1)
					defer func() { ended[i] = clock.Add(1) }()
					switch i {
					case 0:
						<-gate
					case failing:
						return errBoom
					}
					return nil
				}
				handles[i] = rt.MustSubmit(task)
			}
			close(gate)
			if err := rt.Close(); !errors.Is(err, errBoom) {
				t.Fatalf("Close = %v, want the failed writer's error", err)
			}
			for i, h := range handles {
				err := h.Err()
				switch {
				case i == failing:
					if !errors.Is(err, errBoom) || errors.Is(err, ErrDependencyFailed) {
						t.Errorf("task %d (the failing writer): %v", i, err)
					}
				case doomed[i]:
					if !errors.Is(err, ErrDependencyFailed) || !errors.Is(err, errBoom) {
						t.Errorf("task %d is a descendant of the failure but reports %v", i, err)
					}
					if started[i] != 0 {
						t.Errorf("task %d is a descendant of the failure but ran", i)
					}
				default:
					if err != nil {
						t.Errorf("task %d is no descendant of the failure but reports %v", i, err)
					}
				}
				if started[i] == 0 {
					continue
				}
				for _, p := range g.Preds(i) {
					if started[p] != 0 && ended[p] > started[i] {
						t.Errorf("task %d started at %d, before its predecessor %d ended at %d",
							i, started[i], p, ended[p])
					}
				}
			}
			s := rt.Stats()
			if want := uint64(len(doomed)); s.Skipped != want || s.Failed != 1 || s.Executed != uint64(len(specs))-want-1 {
				t.Errorf("stats %v, want %d skipped, 1 failed", s, want)
			}
			if want := uint64(len(specs) - 1); s.BankMaxQueue != want {
				t.Errorf("BankMaxQueue = %d, want %d", s.BankMaxQueue, want)
			}
		})
	}
}

// hotWaiters walks the kick-off list of address hot and returns its nodes in
// order, checking the list's own bookkeeping on the way.
func hotWaiters(t *testing.T, rt *Runtime, hot uint64) []*taskNode {
	t.Helper()
	key := tableKey{0, hot}
	h := rt.hashKey(key)
	idx := []int32{rt.bankOf(h)}
	rt.lockBanks(idx)
	defer rt.unlockBanks(idx)
	seg, _ := rt.banks[idx[0]].table.find(h, key)
	if seg == nil {
		t.Fatal("the hot key has no segment")
	}
	var nodes []*taskNode
	for n, slot := seg.head, seg.headSlot; n != nil; {
		if got := n.task.Deps[slot].Addr; got != hot {
			t.Fatalf("waiter %d is linked through slot %d, which holds address %#x", len(nodes), slot, got)
		}
		nodes = append(nodes, n)
		acc, nextSlot := n.slots()
		if acc[slot].seg != seg {
			t.Fatalf("waiter %d: slot %d does not point at the segment it queues on", len(nodes)-1, slot)
		}
		if acc[slot].next == nil && (seg.tail != n || seg.tailSlot != slot) {
			t.Fatalf("waiter %d ends the list but is not its tail", len(nodes)-1)
		}
		n, slot = acc[slot].next, nextSlot[slot]
	}
	if int(seg.waiting) != len(nodes) {
		t.Fatalf("segment counts %d waiters, the list holds %d", seg.waiting, len(nodes))
	}
	return nodes
}

// TestKickoffDrainLeavesNoLinks checks what keeps the intrusive list from
// pinning memory: with the gate held the hot key's list holds every other
// task in submission order, inline and spilled nodes alike; every task has
// given up its links by the time its body runs — checked while the body is
// held, because a finished node is cleared — so no popped access links to
// the task that queued behind it; every finished node is zero, holding no
// pointer into its chunk's block or out of it; and once the graph has
// drained no key is left in any bank, and every recycled segment on the bank
// free lists is empty — no head, no tail, no reader, no poison, no key. It
// runs twice on the same runtime: the second pass files its segments off the
// free lists the first one left.
func TestKickoffDrainLeavesNoLinks(t *testing.T) {
	specs := deepQueue(5, 4)
	for name, rt := range newRuntimes(Config{Workers: 4, Window: 2 * len(specs)}) {
		t.Run(name, func(t *testing.T) {
			for range 2 {
				// Every body reports that it runs and holds until released.
				started := make(chan int)
				release := make([]chan struct{}, len(specs))
				tasks := make([]Task, len(specs))
				for i, spec := range specs {
					tasks[i] = TaskFromSpec(spec, ReplayOptions{ZeroCost: true})
					release[i] = make(chan struct{})
					tasks[i].Do = func(context.Context) error { started <- i; <-release[i]; return nil }
				}
				// One batch: SubmitAll checks it task by task, so the gate —
				// task 0 — runs (and holds both shared keys) while the rest
				// queue behind it.
				handles, err := rt.SubmitAll(context.Background(), tasks)
				if err != nil {
					t.Fatal(err)
				}
				if i := <-started; i != 0 {
					t.Fatalf("task %d runs before the gate", i)
				}
				fenceMaestro(t, rt)
				nodes := hotWaiters(t, rt, hotKey)
				if len(nodes) != len(specs)-1 {
					t.Fatalf("%d tasks wait on the hot key, want %d", len(nodes), len(specs)-1)
				}
				spilled := 0
				for i, n := range nodes {
					if n.handle != handles[i+1] {
						t.Fatalf("waiter %d is task %s, want %s", i, n.handle.Name(), handles[i+1].Name())
					}
					if n.spill != nil {
						spilled++
					}
				}
				if spilled == 0 || spilled == len(nodes) {
					t.Fatalf("%d of %d waiters are spilled; the scenario must mix both layouts", spilled, len(nodes))
				}
				close(release[0])
				// A running task has been popped from every list it was on,
				// and nothing links to it or from it any more.
				for range nodes {
					i := <-started
					n := nodes[i-1]
					acc, _ := n.slots()
					for slot := range n.task.Deps {
						if acc[slot].next != nil {
							t.Errorf("task %d, slot %d: link to %s survives the pop", i, slot, acc[slot].next.handle.Name())
						}
					}
					close(release[i])
				}
				if err := rt.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
				for i, n := range nodes {
					if !reflect.ValueOf(n).Elem().IsZero() {
						t.Errorf("task %d finished, but its node still holds %+v", i+1, n.task)
					}
				}
				recycled := 0
				for i := range rt.banks {
					idx := []int32{int32(i)}
					rt.lockBanks(idx)
					b := &rt.banks[i]
					if n := b.table.count; n != 0 {
						t.Errorf("bank %d still files %d keys", i, n)
					}
					// A stale pointer in a vacated slot would pin a recycled
					// segment, and through it a poison error, for good.
					for j, s := range b.table.slots {
						if s != (slot{}) {
							t.Errorf("bank %d, slot %d of its drained table is not zero: %+v", i, j, s)
						}
					}
					if b.nfree > rt.segFree {
						t.Errorf("bank %d keeps %d free segments, bound %d", i, b.nfree, rt.segFree)
					}
					listed := 0
					for seg := b.free; seg != nil; seg = seg.nextFree {
						listed++
						if *seg != (segState{nextFree: seg.nextFree}) {
							t.Errorf("bank %d recycles a segment that is not empty: %s", i, segFields(seg))
						}
					}
					if listed != b.nfree {
						t.Errorf("bank %d counts %d free segments, its list holds %d", i, b.nfree, listed)
					}
					recycled += listed
					rt.unlockBanks(idx)
				}
				if recycled == 0 {
					t.Error("no segment was recycled")
				}
			}
			mustClose(t, rt)
		})
	}
}
