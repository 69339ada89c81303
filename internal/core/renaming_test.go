package core

import (
	"strings"
	"testing"
	"testing/quick"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

func TestRenamingPureWriterNeverWaits(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.renaming = true
	v1, g, _, st := dt.ProcessNew(1, 0xA, 4, trace.Out)
	if !g || st {
		t.Fatal("first writer not granted")
	}
	// A second pure writer forks a version instead of waiting (WAW gone).
	v2, g, _, st := dt.ProcessNew(2, 0xA, 4, trace.Out)
	if !g || st {
		t.Fatal("renamed writer had to wait")
	}
	if v1 == v2 {
		t.Fatal("no fresh version created")
	}
	if dt.Used() != 2 {
		t.Fatalf("used = %d, want 2", dt.Used())
	}
	// Finishing in either order retires both versions.
	dt.ProcessFinished(2, 0xA, v2, true)
	dt.ProcessFinished(1, 0xA, v1, true)
	if dt.Used() != 0 {
		t.Fatalf("used = %d after drain", dt.Used())
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRenamingWAREliminated(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.renaming = true
	vr, g, _, _ := dt.ProcessNew(1, 0xB, 4, trace.In)
	if !g {
		t.Fatal("reader not granted")
	}
	// A pure writer does not wait for the reader (WAR gone).
	vw, g, _, _ := dt.ProcessNew(2, 0xB, 4, trace.Out)
	if !g {
		t.Fatal("writer waited for a reader despite renaming")
	}
	// A reader submitted now binds to the new version and waits for the
	// writer (RAW preserved).
	_, g, _, _ = dt.ProcessNew(3, 0xB, 4, trace.In)
	if g {
		t.Fatal("RAW hazard lost under renaming")
	}
	// Old reader finishes -> old version retires.
	dt.ProcessFinished(1, 0xB, vr, false)
	// Writer finishes -> waiting reader granted on the new version.
	grants, _ := dt.ProcessFinished(2, 0xB, vw, true)
	if len(grants) != 1 || grants[0].Task != 3 {
		t.Fatalf("grants = %v", grants)
	}
	dt.ProcessFinished(3, 0xB, vw, false)
	if dt.Used() != 0 {
		t.Fatalf("used = %d", dt.Used())
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRenamingInOutKeepsTrueDependency(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.renaming = true
	v1, _, _, _ := dt.ProcessNew(1, 0xC, 4, trace.Out)
	// An inout must wait: it reads the current value.
	_, g, _, _ := dt.ProcessNew(2, 0xC, 4, trace.InOut)
	if g {
		t.Fatal("inout bypassed its RAW dependency")
	}
	grants, _ := dt.ProcessFinished(1, 0xC, v1, true)
	if len(grants) != 1 || grants[0].Task != 2 {
		t.Fatalf("grants = %v", grants)
	}
	dt.ProcessFinished(2, 0xC, v1, true)
	if dt.Used() != 0 {
		t.Fatal("leak")
	}
}

func TestRenamingSystemEndToEnd(t *testing.T) {
	// A WAW/WAR-heavy workload: every task rewrites one of 4 hot blocks.
	rng := sim.NewRand(3)
	var tasks []trace.TaskSpec
	for i := 0; i < 60; i++ {
		mode := trace.Out
		if rng.Intn(4) == 0 {
			mode = trace.In
		}
		tasks = append(tasks, trace.TaskSpec{
			ID:     uint64(i),
			Params: []trace.Param{{Addr: uint64(rng.Intn(4)+1) * 64, Size: 64, Mode: mode}},
			Exec:   sim.Time(rng.Intn(4000)+500) * sim.Nanosecond,
		})
	}
	mk := func() workload.Source {
		return workload.FromTrace(&trace.Trace{Name: "hot-writes", Tasks: tasks})
	}
	cfg := testConfig(8)
	cfg.RenameFalseDeps = true
	res, err := Run(cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	g := depgraph.BuildRenamed(mk())
	if err := g.ValidateSchedule(res.Schedule); err != nil {
		t.Fatal(err)
	}
	// Renaming must beat the safe-guard mode on this WAW-heavy workload.
	safeCfg := testConfig(8)
	safe, err := Run(safeCfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= safe.Makespan {
		t.Fatalf("renaming (%v) should beat WAW enforcement (%v)", res.Makespan, safe.Makespan)
	}
}

func TestRenamingStillSerialisesChains(t *testing.T) {
	// Inout chains are true dependencies: renaming must not break them.
	cfg := testConfig(4)
	cfg.RenameFalseDeps = true
	src := workload.Gaussian(workload.GaussianConfig{N: 12})
	res, err := Run(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	g := depgraph.BuildRenamed(workload.Gaussian(workload.GaussianConfig{N: 12}))
	if err := g.ValidateSchedule(res.Schedule); err != nil {
		t.Fatal(err)
	}
}

func TestRenamingOnWavefront(t *testing.T) {
	cfg := testConfig(8)
	cfg.RenameFalseDeps = true
	src := smallGrid(workload.PatternWavefront, 10, 10, 5)
	res, err := Run(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	g := depgraph.BuildRenamed(smallGrid(workload.PatternWavefront, 10, 10, 5))
	if err := g.ValidateSchedule(res.Schedule); err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted != 100 {
		t.Fatalf("executed %d", res.TasksExecuted)
	}
}

// Property: random workloads under renaming complete, validate against the
// renamed oracle, and never leak table slots.
func TestRenamingRandomProperty(t *testing.T) {
	prop := func(seed uint64, wRaw, nRaw uint8) bool {
		rng := sim.NewRand(seed)
		n := int(nRaw%35) + 1
		tasks := make([]trace.TaskSpec, n)
		for i := range tasks {
			tasks[i].ID = uint64(i)
			tasks[i].Exec = sim.Time(rng.Intn(3000)+100) * sim.Nanosecond
			used := map[uint64]bool{}
			for k := 0; k <= rng.Intn(3); k++ {
				a := uint64(rng.Intn(6)+1) * 64
				if used[a] {
					continue
				}
				used[a] = true
				tasks[i].Params = append(tasks[i].Params, trace.Param{
					Addr: a, Size: 64, Mode: trace.AccessMode(rng.Intn(3)),
				})
			}
			if len(tasks[i].Params) == 0 {
				tasks[i].Params = []trace.Param{{Addr: 8, Size: 8, Mode: trace.Out}}
			}
		}
		mk := func() workload.Source {
			return workload.FromTrace(&trace.Trace{Name: "prop", Tasks: tasks})
		}
		cfg := testConfig(int(wRaw%5) + 1)
		cfg.RenameFalseDeps = true
		res, err := Run(cfg, mk())
		if err != nil {
			return false
		}
		return depgraph.BuildRenamed(mk()).ValidateSchedule(res.Schedule) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestDepTableSharedBucketRenaming puts two addresses in one bucket chain,
// with a demoted version of A ahead of its current one: the chain is the
// table's only index, so the walk must skip the demoted version and report
// the current one's position.
func TestDepTableSharedBucketRenaming(t *testing.T) {
	dt := NewDepTable(16, 8)
	dt.renaming = true
	ab := sameBucket(dt, 2)
	a, b := ab[0], ab[1]
	old, _, _, _ := dt.ProcessNew(1, a, 4, trace.In) // reader keeps it alive
	dt.ProcessNew(2, b, 4, trace.Out)
	cur, g, _, _ := dt.ProcessNew(3, a, 4, trace.Out) // demotes old
	if !g || cur == old {
		t.Fatalf("pure writer: granted %v, version %d (old %d)", g, cur, old)
	}
	// Chain: old A (demoted), B, current A.
	if idx, walk, found := dt.lookup(a); !found || idx != cur || walk != 3 {
		t.Fatalf("lookup(A) = %d, walk %d, found %v; want %d, walk 3", idx, walk, found, cur)
	}
	if dt.Live() != 2 || dt.Used() != 3 {
		t.Fatalf("live/used = %d/%d, want 2/3 (the demoted version is not live)", dt.Live(), dt.Used())
	}
	if dt.MaxChain() != 3 { // what the table reported when it also kept an index map
		t.Fatalf("max chain = %d, want 3", dt.MaxChain())
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	// A second current entry for A must be caught.
	dt.entries[old].current = true
	dt.live++
	if err := dt.checkInvariants(); err == nil || !strings.Contains(err.Error(), "two current entries") {
		t.Fatalf("checkInvariants with two current versions of A: %v", err)
	}
	dt.entries[old].current = false
	dt.live--

	// The demoted version retires with its reader; A is found one step sooner.
	dt.ProcessFinished(1, a, old, false)
	if idx, walk, found := dt.lookup(a); !found || idx != cur || walk != 2 {
		t.Fatalf("after retiring the demoted version: lookup(A) = %d, walk %d, found %v", idx, walk, found)
	}
	if dt.Live() != 2 || dt.Used() != 2 {
		t.Fatalf("live/used = %d/%d, want 2/2", dt.Live(), dt.Used())
	}
	if err := dt.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
