package core

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

func TestNumTDs(t *testing.T) {
	cases := []struct {
		params, max, want int
	}{
		{1, 8, 1},
		{8, 8, 1},
		{9, 8, 2},  // parent 7 + dummy 2
		{10, 8, 2}, // the paper's Table I example: 10 params in 2 TDs
		{15, 8, 2}, // parent 7 + dummy 8
		{16, 8, 3}, // parent 7 + dummy 7 + dummy 2
		{22, 8, 3}, // 7 + 7 + 8
		{23, 8, 4},
		{3, 4, 1},
		{5, 4, 2},
		{11, 4, 4}, // 3 + 3 + 3 + 2
	}
	for _, c := range cases {
		if got := NumTDs(c.params, c.max); got != c.want {
			t.Errorf("NumTDs(%d, %d) = %d, want %d", c.params, c.max, got, c.want)
		}
	}
}

// Property: NumTDs is the minimal chain covering all params under the
// layout "every non-final TD holds max-1 params + pointer; the final TD
// holds up to max params".
func TestNumTDsProperty(t *testing.T) {
	prop := func(pRaw uint16, mRaw uint8) bool {
		params := int(pRaw%500) + 1
		max := int(mRaw%14) + 2
		n := NumTDs(params, max)
		capacity := func(k int) int {
			if k <= 0 {
				return 0
			}
			return (k-1)*(max-1) + max
		}
		return capacity(n) >= params && (n == 1 || capacity(n-1) < params)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func wideSpec(id uint64, n int) trace.TaskSpec {
	s := trace.TaskSpec{ID: id, Exec: 1}
	for i := 0; i < n; i++ {
		s.Params = append(s.Params, trace.Param{Addr: 0x1000 + uint64(i)*64, Size: 64, Mode: trace.In})
	}
	return s
}

func TestTaskPoolAllocFree(t *testing.T) {
	tp := NewTaskPool(8, 8)
	if tp.Capacity() != 8 || tp.FreeCount() != 8 {
		t.Fatalf("capacity/free = %d/%d", tp.Capacity(), tp.FreeCount())
	}
	id, ok := tp.Alloc(wideSpec(0, 3))
	if !ok {
		t.Fatal("alloc failed")
	}
	if tp.FreeCount() != 7 || tp.Occupancy() != 1 {
		t.Fatalf("free/occ = %d/%d", tp.FreeCount(), tp.Occupancy())
	}
	if tp.Spec(id).ID != 0 || tp.DC(id) != 0 {
		t.Fatal("stored spec wrong")
	}
	tp.Free(id)
	if tp.FreeCount() != 8 || tp.Occupancy() != 0 {
		t.Fatalf("after free: free/occ = %d/%d", tp.FreeCount(), tp.Occupancy())
	}
}

func TestTaskPoolDummyChains(t *testing.T) {
	tp := NewTaskPool(8, 8)
	// 10 params -> 2 TDs (paper's Table I example).
	id, ok := tp.Alloc(wideSpec(0, 10))
	if !ok {
		t.Fatal("alloc failed")
	}
	if tp.Occupancy() != 2 || tp.DummyTDs() != 1 {
		t.Fatalf("occ=%d dummies=%d, want 2/1", tp.Occupancy(), tp.DummyTDs())
	}
	e := tp.Entry(id)
	if len(e.extra) != 1 {
		t.Fatalf("nD = %d, want 1", len(e.extra))
	}
	tp.Free(id)
	if tp.FreeCount() != 8 {
		t.Fatalf("dummy descriptors not returned: free = %d", tp.FreeCount())
	}
}

func TestTaskPoolInsufficientSpace(t *testing.T) {
	tp := NewTaskPool(3, 8)
	if _, ok := tp.Alloc(wideSpec(0, 10)); !ok { // needs 2 TDs
		t.Fatal("first alloc failed")
	}
	if _, ok := tp.Alloc(wideSpec(1, 10)); ok { // needs 2, only 1 free
		t.Fatal("alloc succeeded without space")
	}
	if tp.FreeCount() != 1 {
		t.Fatalf("failed alloc mutated the pool: free = %d", tp.FreeCount())
	}
}

func TestTaskPoolImpossibleTaskPanics(t *testing.T) {
	tp := NewTaskPool(2, 8)
	defer func() {
		if recover() == nil {
			t.Error("oversized task did not panic")
		}
	}()
	tp.Alloc(wideSpec(0, 100)) // needs far more TDs than the pool holds
}

func TestTaskPoolDeadEntryPanics(t *testing.T) {
	tp := NewTaskPool(4, 8)
	id, _ := tp.Alloc(wideSpec(0, 1))
	tp.Free(id)
	defer func() {
		if recover() == nil {
			t.Error("access to dead entry did not panic")
		}
	}()
	tp.Entry(id)
}

func TestTaskPoolDCUnderflowPanics(t *testing.T) {
	tp := NewTaskPool(4, 8)
	id, _ := tp.Alloc(wideSpec(0, 1))
	defer func() {
		if recover() == nil {
			t.Error("DC underflow did not panic")
		}
	}()
	tp.AddDC(id, -1)
}

func TestTaskPoolOnFree(t *testing.T) {
	tp := NewTaskPool(4, 8)
	fired := 0
	tp.OnFree(func() { fired++ })
	id, _ := tp.Alloc(wideSpec(0, 10))
	tp.Free(id)
	if fired != 2 { // two descriptors returned
		t.Fatalf("OnFree fired %d times, want 2", fired)
	}
}

// --- Dependence Table ------------------------------------------------------

func TestDepTableReadersShare(t *testing.T) {
	dt := NewDepTable(16, 8)
	_, g, _, st := dt.ProcessNew(1, 0xA, 4, trace.In)
	if !g || st {
		t.Fatal("first reader not granted")
	}
	_, g, _, st = dt.ProcessNew(2, 0xA, 4, trace.In)
	if !g || st {
		t.Fatal("second reader not granted")
	}
	if dt.Live() != 1 || dt.Used() != 1 {
		t.Fatalf("live/used = %d/%d", dt.Live(), dt.Used())
	}
	// First reader finishes: entry stays for the second.
	grants, _ := dt.ProcessFinished(1, 0xA, -1, false)
	if len(grants) != 0 || dt.Live() != 1 {
		t.Fatalf("grants=%v live=%d", grants, dt.Live())
	}
	// Last reader finishes: entry removed.
	grants, _ = dt.ProcessFinished(2, 0xA, -1, false)
	if len(grants) != 0 || dt.Live() != 0 || dt.Used() != 0 {
		t.Fatalf("after last reader: grants=%v live=%d used=%d", grants, dt.Live(), dt.Used())
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepTableRAW(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.ProcessNew(1, 0xA, 4, trace.Out) // writer owns A
	_, g, _, _ := dt.ProcessNew(2, 0xA, 4, trace.In)
	if g {
		t.Fatal("reader granted while writer owns the segment (RAW hazard)")
	}
	grants, _ := dt.ProcessFinished(1, 0xA, -1, true)
	if len(grants) != 1 || grants[0].Task != 2 {
		t.Fatalf("grants = %v, want task 2", grants)
	}
	// Task 2 now reads A; finishing it removes the entry.
	dt.ProcessFinished(2, 0xA, -1, false)
	if dt.Live() != 0 {
		t.Fatal("entry leaked")
	}
}

func TestDepTableWARWriterWaits(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.ProcessNew(1, 0xB, 4, trace.In) // reader active
	_, g, _, _ := dt.ProcessNew(10, 0xB, 4, trace.Out)
	if g {
		t.Fatal("writer granted while reader active (WAR hazard)")
	}
	// Any later task must wait too, regardless of mode (paper SSIII-B).
	_, g, _, _ = dt.ProcessNew(11, 0xB, 4, trace.In)
	if g {
		t.Fatal("reader granted while a writer waits")
	}
	// Reader finishes: the writer takes over, the later reader still waits.
	grants, _ := dt.ProcessFinished(1, 0xB, -1, false)
	if len(grants) != 1 || grants[0].Task != 10 {
		t.Fatalf("grants = %v, want task 10", grants)
	}
	// Writer finishes: the queued reader is granted.
	grants, _ = dt.ProcessFinished(10, 0xB, -1, true)
	if len(grants) != 1 || grants[0].Task != 11 {
		t.Fatalf("grants = %v, want task 11", grants)
	}
	dt.ProcessFinished(11, 0xB, -1, false)
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepTableWAW(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.ProcessNew(1, 0xC, 4, trace.Out)
	_, g, _, _ := dt.ProcessNew(2, 0xC, 4, trace.Out)
	if g {
		t.Fatal("second writer granted (WAW hazard)")
	}
	grants, _ := dt.ProcessFinished(1, 0xC, -1, true)
	if len(grants) != 1 || grants[0].Task != 2 {
		t.Fatalf("grants = %v", grants)
	}
	dt.ProcessFinished(2, 0xC, -1, true)
	if dt.Live() != 0 {
		t.Fatal("entry leaked")
	}
}

func TestDepTableWriterReleasesReaderBatch(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.ProcessNew(1, 0xD, 4, trace.Out)
	for id := int32(2); id <= 5; id++ {
		dt.ProcessNew(id, 0xD, 4, trace.In)
	}
	dt.ProcessNew(6, 0xD, 4, trace.Out) // writer behind the readers
	grants, _ := dt.ProcessFinished(1, 0xD, -1, true)
	if len(grants) != 4 {
		t.Fatalf("granted %d readers, want 4", len(grants))
	}
	for i, g := range grants {
		if g.Task != int32(i+2) {
			t.Fatalf("grant order %v", grants)
		}
	}
	// Readers drain one by one; only after the last one does writer 6 run.
	for id := int32(2); id <= 4; id++ {
		if gs, _ := dt.ProcessFinished(id, 0xD, -1, false); len(gs) != 0 {
			t.Fatalf("premature writer grant after reader %d", id)
		}
	}
	gs, _ := dt.ProcessFinished(5, 0xD, -1, false)
	if len(gs) != 1 || gs[0].Task != 6 {
		t.Fatalf("final grants = %v, want task 6", gs)
	}
	dt.ProcessFinished(6, 0xD, -1, true)
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepTableDummySegments(t *testing.T) {
	dt := NewDepTable(16, 2) // tiny kick-off lists force chaining
	dt.ProcessNew(1, 0xE, 4, trace.Out)
	for id := int32(2); id <= 8; id++ { // 7 waiters, 2 per segment
		if _, _, _, st := dt.ProcessNew(id, 0xE, 4, trace.In); st {
			t.Fatalf("unexpected stall at waiter %d", id)
		}
	}
	if dt.DummySegments() != 3 { // segments: 2+2+2+1 -> 3 dummies chained
		t.Fatalf("dummy segments = %d, want 3", dt.DummySegments())
	}
	if dt.MaxKOSegments() != 4 {
		t.Fatalf("max KO segments = %d, want 4", dt.MaxKOSegments())
	}
	if dt.Used() != 4 { // 1 parent + 3 dummies
		t.Fatalf("used = %d, want 4", dt.Used())
	}
	// Draining promotes dummies to parent and releases slots.
	grants, _ := dt.ProcessFinished(1, 0xE, -1, true)
	if len(grants) != 7 {
		t.Fatalf("grants = %d, want 7", len(grants))
	}
	if dt.Used() != 1 {
		t.Fatalf("used after drain = %d, want 1 (dummies released)", dt.Used())
	}
	for id := int32(2); id <= 8; id++ {
		dt.ProcessFinished(id, 0xE, -1, false)
	}
	if dt.Used() != 0 {
		t.Fatal("slots leaked")
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepTableStallsWhenFull(t *testing.T) {
	dt := NewDepTable(2, 8)
	dt.ProcessNew(1, 0xA, 4, trace.Out)
	dt.ProcessNew(2, 0xB, 4, trace.Out)
	_, g, _, st := dt.ProcessNew(3, 0xC, 4, trace.In)
	if !st || g {
		t.Fatalf("expected full-table stall, got granted=%v stalled=%v", g, st)
	}
	if dt.FullStalls() != 1 {
		t.Fatalf("fullStalls = %d", dt.FullStalls())
	}
	freed := false
	dt.OnFree(func() { freed = true })
	dt.ProcessFinished(1, 0xA, -1, true)
	if !freed {
		t.Fatal("OnFree not invoked")
	}
	if _, g, _, st = dt.ProcessNew(3, 0xC, 4, trace.In); !g || st {
		t.Fatal("retry after free failed")
	}
}

func TestDepTableKOStallWhenFull(t *testing.T) {
	dt := NewDepTable(2, 1) // one KO slot per segment
	dt.ProcessNew(1, 0xA, 4, trace.Out)
	if _, _, _, st := dt.ProcessNew(2, 0xA, 4, trace.In); st {
		t.Fatal("first waiter should fit in the parent segment")
	}
	dt.ProcessNew(3, 0xB, 4, trace.Out) // fills the second slot
	// Next waiter on A needs a dummy segment: table is full.
	if _, _, _, st := dt.ProcessNew(4, 0xA, 4, trace.In); !st {
		t.Fatal("expected stall when a kick-off extension cannot allocate")
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDepTableChainStats(t *testing.T) {
	dt := NewDepTable(64, 8)
	for i := 0; i < 40; i++ {
		dt.ProcessNew(int32(i), uint64(i+1)*977, 4, trace.Out)
	}
	if dt.MaxChain() < 1 {
		t.Fatal("max chain not tracked")
	}
	if dt.MaxOccupancy() != 40 {
		t.Fatalf("max occupancy = %d, want 40", dt.MaxOccupancy())
	}
}

func TestDepTableUnknownFinishPanics(t *testing.T) {
	dt := NewDepTable(8, 8)
	defer func() {
		if recover() == nil {
			t.Error("finishing an unknown segment did not panic")
		}
	}()
	dt.ProcessFinished(1, 0xDEAD, -1, true)
}

// dtOp is one step of a replayed access sequence and the table's answer.
type dtOp struct {
	task     int32
	finish   bool
	granted  bool // a submission's answer
	stalled  bool
	accesses int
	walk     int // a finish's chain walk, as lookup reports it before the call
	grants   []int32
}

// readWrite is the mode mix of a sequence without pure writers.
var readWrite = []trace.AccessMode{trace.InOut, trace.In}

// replayLifecycle drives dt through a random sequence of well-formed
// single-parameter accesses, the way the Maestro uses the table: a task is
// granted or queued per address, finishes only after being granted, and
// finishing releases its hold. After ops steps every granted task finishes
// in turn. step sees each operation and may stop the replay with an error.
// The sequence's addresses are six that share one bucket chain when shared
// is set, and its modes are drawn from modes.
func replayLifecycle(dt *DepTable, seed uint64, ops int, shared bool, modes []trace.AccessMode, step func(dtOp) error) error {
	type hold struct {
		addr  uint64
		mode  trace.AccessMode
		entry int32
	}
	rng := sim.NewRand(seed)
	addrs := []uint64{1, 2, 3, 4, 5, 6}
	if shared {
		addrs = sameBucket(dt, 6)
	}
	active := map[int32]hold{}  // granted tasks
	waiting := map[int32]hold{} // queued tasks
	nextID := int32(1)
	finish := func() error {
		var id int32 = -1
		for k := range active {
			if id < 0 || k < id {
				id = k
			}
		}
		h := active[id]
		delete(active, id)
		op := dtOp{task: id, finish: true}
		_, op.walk, _ = dt.lookup(h.addr)
		grants, acc := dt.ProcessFinished(id, h.addr, h.entry, h.mode.Writes())
		op.accesses = acc
		for _, g := range grants {
			hw, ok := waiting[g.Task]
			if !ok {
				return fmt.Errorf("task %d granted but not waiting", g.Task)
			}
			delete(waiting, g.Task)
			active[g.Task] = hw
			op.grants = append(op.grants, g.Task)
		}
		return step(op)
	}
	for i := 0; i < ops; i++ {
		if rng.Intn(2) == 0 || len(active) == 0 {
			h := hold{addr: addrs[rng.Intn(len(addrs))], mode: modes[rng.Intn(len(modes))]}
			op := dtOp{task: nextID}
			nextID++
			h.entry, op.granted, op.accesses, op.stalled = dt.ProcessNew(op.task, h.addr, 4, h.mode)
			switch {
			case op.stalled:
			case op.granted:
				active[op.task] = h
			default:
				waiting[op.task] = h
			}
			if err := step(op); err != nil {
				return err
			}
		} else if err := finish(); err != nil {
			return err
		}
	}
	for len(active) > 0 {
		if err := finish(); err != nil {
			return err
		}
	}
	if len(waiting) != 0 || dt.Used() != 0 {
		return fmt.Errorf("drained table: %d tasks still waiting, %d slots used", len(waiting), dt.Used())
	}
	return nil
}

// Property: random sequences of well-formed accesses keep the table's
// invariants and never leak slots once all tasks finish.
func TestDepTableLifecycleProperty(t *testing.T) {
	prop := func(seed uint64, opsRaw uint8, shared bool) bool {
		dt := NewDepTable(64, 2)
		check := func(dtOp) error { return dt.checkInvariants() }
		return replayLifecycle(dt, seed, int(opsRaw)%120+20, shared, readWrite, check) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// FuzzDepTableModes replays one sequence without pure writers on a table
// without and with renaming. Renaming changes only what a pure writer
// does, so the two tables must agree on every grant, stall and Check Deps
// access count. A Handle Finished differs by exactly the chain walk: the
// renaming table reads the entry the task was bound to instead.
func FuzzDepTableModes(f *testing.F) {
	f.Add(uint64(1), uint8(60), false)
	f.Add(uint64(7), uint8(119), true)
	f.Add(uint64(42), uint8(250), true)
	f.Fuzz(func(t *testing.T, seed uint64, opsRaw uint8, shared bool) {
		replay := func(renaming bool) []dtOp {
			dt := NewDepTable(64, 2)
			dt.renaming = renaming
			var log []dtOp
			err := replayLifecycle(dt, seed, int(opsRaw)%120+20, shared, readWrite, func(op dtOp) error {
				log = append(log, op)
				return dt.checkInvariants()
			})
			if err != nil {
				t.Fatalf("renaming %v: %v", renaming, err)
			}
			return log
		}
		classic, renamed := replay(false), replay(true)
		if len(classic) != len(renamed) {
			t.Fatalf("%d operations without renaming, %d with", len(classic), len(renamed))
		}
		for i, c := range classic {
			r, want := renamed[i], c
			if c.finish {
				want.accesses -= c.walk
			}
			if r.task != want.task || r.finish != want.finish || r.granted != want.granted ||
				r.stalled != want.stalled || r.accesses != want.accesses || r.walk != want.walk ||
				!slices.Equal(r.grants, want.grants) {
				t.Fatalf("operation %d: without renaming %+v, with renaming %+v", i, c, r)
			}
		}
	})
}

// sameBucket returns n addresses that dt hashes into one bucket.
func sameBucket(dt *DepTable, n int) []uint64 {
	var addrs []uint64
	for a := uint64(64); len(addrs) < n; a += 64 {
		if dt.hash(a) == dt.hash(64) {
			addrs = append(addrs, a)
		}
	}
	return addrs
}
