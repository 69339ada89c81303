package core

import (
	"testing"

	"nexuspp/internal/workload"
)

// runAllocs returns the allocations of one core.Run of Gaussian n on cfg
// and the run's task count.
func runAllocs(t *testing.T, cfg Config, n int) (allocs float64, tasks int) {
	t.Helper()
	src := workload.Gaussian(workload.GaussianConfig{N: n})
	allocs = testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, src); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, src.Total()
}

// TestRunAllocationsPerTask pins the simulator's host-side diet as a
// whole: every block keeps its in-flight item in a register and completes
// through a callback bound at construction, the Dependence Table reuses
// its kick-off lists and grant buffer, and the workload carves parameters
// from a slab. What is left is the run's fixed set-up (FIFO rings,
// controllers, tables) spread over the tasks: 0.70 per task on this small
// graph. Before that diet the same run cost about 60; the budget of 1
// leaves room for set-up to drift, not for one allocation per task.
func TestRunAllocationsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	allocs, tasks := runAllocs(t, DefaultConfig(16), 40)
	perTask := allocs / float64(tasks)
	t.Logf("%.2f allocations per task (%d tasks)", perTask, tasks)
	if perTask > 1 {
		t.Errorf("core.Run: %.2f allocations per task, want <= 1", perTask)
	}
}

// TestRunLoopAllocationsPerExtraTask pins the event loop apart from the
// set-up: the same configuration on Gaussian N = 40 and N = 80 has the
// same set-up, so the difference in allocations over the difference in
// tasks is what one more task costs. Under renaming a Task Pool entry
// keeps its versions slice from task to task, or every task would
// allocate one. The 0.08 renaming still costs above the safe guard (0.11
// against 0.024) is first-touch growth: N = 80 reaches Task Pool entries,
// bucket chains and kick-off lists that N = 40 never grows, and renaming's
// extra live versions reach more of them. Between N = 80 and N = 120 the
// two configurations cost the same, 0.016.
func TestRunLoopAllocationsPerExtraTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	renaming := DefaultConfig(16)
	renaming.RenameFalseDeps = true
	for _, c := range []struct {
		name   string
		cfg    Config
		budget float64
	}{
		{"safe-guard", DefaultConfig(16), 0.1},
		{"renaming", renaming, 0.2},
	} {
		a40, t40 := runAllocs(t, c.cfg, 40)
		a80, t80 := runAllocs(t, c.cfg, 80)
		marginal := (a80 - a40) / float64(t80-t40)
		t.Logf("%s: %.4f allocations per extra task (%.0f over %d tasks, %.0f over %d)", c.name, marginal, a40, t40, a80, t80)
		if marginal > c.budget {
			t.Errorf("core.Run, %s: %.4f allocations per extra task, want <= %g", c.name, marginal, c.budget)
		}
	}
}
