package starss

import (
	"context"
	"errors"
	"testing"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/obs"
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// chainTrace builds a producer→consumer chain on one address plus an
// independent task, small enough to reason about exactly.
func chainTrace() workload.Source {
	tasks := []trace.TaskSpec{
		{ID: 0, Params: []trace.Param{{Addr: 0x100, Size: 4, Mode: trace.Out}}, Exec: sim.Microsecond},
		{ID: 1, Params: []trace.Param{{Addr: 0x100, Size: 4, Mode: trace.In}}, Exec: sim.Microsecond},
		{ID: 2, Params: []trace.Param{{Addr: 0x200, Size: 4, Mode: trace.InOut}}, Exec: sim.Microsecond},
	}
	return workload.FromTrace(&trace.Trace{Name: "chain", Tasks: tasks})
}

func TestTaskFromSpecMapsModes(t *testing.T) {
	spec := trace.TaskSpec{ID: 9, Params: []trace.Param{
		{Addr: 1, Mode: trace.In},
		{Addr: 2, Mode: trace.Out},
		{Addr: 3, Mode: trace.InOut},
	}}
	task := TaskFromSpec(spec, ReplayOptions{ZeroCost: true})
	want := []Dep{In(1), Out(2), InOut(3)}
	if len(task.Deps) != len(want) {
		t.Fatalf("deps = %v", task.Deps)
	}
	for i, d := range task.Deps {
		if d != want[i] {
			t.Errorf("dep %d = %v, want %v", i, d, want[i])
		}
	}
	if task.Do == nil {
		t.Fatal("no body synthesized")
	}
	if err := task.Do(context.Background()); err != nil {
		t.Fatalf("zero-cost body: %v", err)
	}
}

// TestReplayOnBothRuntimes replays the same trace on the sharded runtime
// (a chunk resolved task by task in the caller) and the maestro baseline
// (the chunk resolved one rendezvous per task) and checks both execute
// every task cleanly.
func TestReplayOnBothRuntimes(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   *Runtime
	}{
		{"sharded", New(Config{Workers: 2})},
		{"maestro", NewMaestro(Config{Workers: 2})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Replay(context.Background(), tc.rt, chainTrace(), ReplayOptions{TimeScale: 1})
			if err != nil {
				t.Fatal(err)
			}
			if cerr := tc.rt.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			if res.Stats.Executed != 3 || res.Stats.Failed != 0 || res.Stats.Skipped != 0 {
				t.Errorf("stats = %v", res.Stats)
			}
			if res.Workload != "chain" {
				t.Errorf("workload = %q", res.Workload)
			}
			if res.Wall <= 0 {
				t.Errorf("wall = %v", res.Wall)
			}
		})
	}
}

// TestReplayHonoursCancellation: a cancelled context aborts the replay with
// the context's error instead of wedging on the barrier.
func TestReplayHonoursCancellation(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer mustClose(t, rt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Replay(ctx, rt, chainTrace(), ReplayOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReplayRespectsDependencies replays a serial chain on the instrumented
// runtime and checks the event stream against the dependency-graph oracle:
// no task's body starts before every predecessor's has finished.
func TestReplayRespectsDependencies(t *testing.T) {
	// Serial chain: each task InOuts its predecessor's address.
	var tasks []trace.TaskSpec
	const n = 64
	for i := 0; i < n; i++ {
		tasks = append(tasks, trace.TaskSpec{
			ID:     uint64(i),
			Params: []trace.Param{{Addr: 0x40, Size: 4, Mode: trace.InOut}},
		})
	}
	src := workload.FromTrace(&trace.Trace{Name: "serial-chain", Tasks: tasks})
	g := depgraph.Build(src)
	rt := New(Config{Workers: 4, EventBuffer: 8 * n})
	res, err := Replay(context.Background(), rt, src, ReplayOptions{ZeroCost: true})
	if err != nil {
		t.Fatal(err)
	}
	if cerr := rt.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if res.Stats.Executed != n {
		t.Fatalf("executed = %d, want %d", res.Stats.Executed, n)
	}
	// A task waits only if its predecessor is still in flight when it is
	// checked, so zero-cost bodies bound the count without fixing it.
	if res.Stats.Hazards > n-1 {
		t.Errorf("hazards = %d, want at most %d (every task but the first)", res.Stats.Hazards, n-1)
	}
	checkRunOrder(t, rt, g)
}

// checkRunOrder holds a drained runtime's event stream against the
// dependency-graph oracle: every task of g ran, and no body started before
// all its predecessors' had finished. The tasks must have been submitted in
// trace order, so that the submission index is the trace ID.
func checkRunOrder(t *testing.T, rt *Runtime, g *depgraph.Graph) {
	t.Helper()
	if d := rt.Events().Dropped(); d != 0 {
		t.Fatalf("%d events dropped: the oracle check would be partial", d)
	}
	n := g.NumTasks()
	run, finish := make([]int64, n), make([]int64, n)
	for _, ev := range rt.Events().Drain() {
		switch ev.Kind {
		case obs.KindRun:
			run[ev.Task] = ev.TS
		case obs.KindFinish:
			finish[ev.Task] = ev.TS
		}
	}
	for i := 0; i < n; i++ {
		if run[i] == 0 || finish[i] < run[i] {
			t.Fatalf("task %d: run at %d, finish at %d", i, run[i], finish[i])
		}
		for _, p := range g.Preds(i) {
			if finish[p] > run[i] {
				t.Errorf("task %d ran at %d, before its predecessor %d finished at %d", i, run[i], p, finish[p])
			}
		}
	}
}

// TestReplayStatsCoverOneReplay: two replays sharing a runtime each report
// their own counters, not the runtime's cumulative lifetime totals.
func TestReplayStatsCoverOneReplay(t *testing.T) {
	rt := New(Config{Workers: 2})
	for i := 0; i < 2; i++ {
		res, err := Replay(context.Background(), rt, chainTrace(), ReplayOptions{ZeroCost: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Executed != 3 {
			t.Fatalf("replay %d: executed = %d, want 3 (per-replay, not cumulative)", i, res.Stats.Executed)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
}
