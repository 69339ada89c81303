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
// tasks is what one more task costs.
func TestRunLoopAllocationsPerExtraTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	cfg := DefaultConfig(16)
	a40, t40 := runAllocs(t, cfg, 40)
	a80, t80 := runAllocs(t, cfg, 80)
	marginal := (a80 - a40) / float64(t80-t40)
	t.Logf("%.4f allocations per extra task (%.0f over %d tasks, %.0f over %d)", marginal, a40, t40, a80, t80)
	if marginal > 0.1 {
		t.Errorf("core.Run: %.4f allocations per extra task, want <= 0.1", marginal)
	}
}
