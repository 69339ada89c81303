package core

import (
	"testing"

	"nexuspp/internal/workload"
)

// TestRunAllocationsPerTask pins the simulator's host-side diet: every
// block keeps its in-flight item in a register and completes through a
// callback bound at construction, so what is left per task is the
// workload's own parameter slice plus the run's fixed set-up (FIFO rings,
// controllers, tables) spread over the tasks: 1.8 per task on this small
// graph. Before that diet the same run cost about 60; the budget of 3
// leaves room for set-up to drift, not for one closure per task.
func TestRunAllocationsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	src := workload.Gaussian(workload.GaussianConfig{N: 40})
	cfg := DefaultConfig(16)
	run := func() {
		if _, err := Run(cfg, src); err != nil {
			t.Fatal(err)
		}
	}
	perTask := testing.AllocsPerRun(5, run) / float64(src.Total())
	t.Logf("%.2f allocations per task (%d tasks)", perTask, src.Total())
	if perTask > 3 {
		t.Errorf("core.Run: %.2f allocations per task, want <= 3", perTask)
	}
}
