package workload

import (
	"slices"
	"testing"

	"nexuspp/internal/trace"
)

// slabSources is every generator, each small enough to pass quickly and
// large enough that one allocation per task would show.
func slabSources() []Source {
	return []Source{
		Gaussian(GaussianConfig{N: 40}),
		Gaussian(GaussianConfig{N: 40, PivotObservesAll: true}),
		Grid(GridConfig{Pattern: PatternIndependent, Rows: 40, Cols: 40, Seed: 1}),
		Grid(GridConfig{Pattern: PatternWavefront, Rows: 40, Cols: 40, Seed: 2}),
		Grid(GridConfig{Pattern: PatternHorizontal, Rows: 40, Cols: 40, Seed: 3}),
		Grid(GridConfig{Pattern: PatternVertical, Rows: 40, Cols: 40, Seed: 4}),
		Cholesky(CholeskyConfig{Tiles: 16}),
		RandomDAG(RandomDAGConfig{Tasks: 2000, FanIn: 4, Window: 32, Seed: 5}),
		SpatialSkew(SpatialSkewConfig{Rows: 20, Cols: 20, Sweeps: 4, Seed: 6}),
		StarPUDeps(StarPUDepsConfig{Rows: 40, Cols: 40, Edges: 3}),
	}
}

// TestSourceAllocationsPerPass pins the parameter slab: a full pass of
// Next allocates one slab per paramSlabLen parameters, not one list per
// task, so it stays within Total()/64 plus what Reset itself allocates.
func TestSourceAllocationsPerPass(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	for _, s := range slabSources() {
		allocs := testing.AllocsPerRun(3, func() {
			s.Reset()
			for {
				if _, ok := s.Next(); !ok {
					break
				}
			}
		})
		limit := float64(s.Total()/64 + 4)
		t.Logf("%s: %.0f allocations for %d tasks", s.Name(), allocs, s.Total())
		if allocs > limit {
			t.Errorf("%s: one pass allocates %.0f times, want <= %.0f", s.Name(), allocs, limit)
		}
	}
}

// TestSourceParamsAreOwned pins the ownership rule on Source.Next: every
// spec's Params is its own, len == cap so an append copies, and a second
// pass after Reset neither changes nor shares the first pass's lists.
func TestSourceParamsAreOwned(t *testing.T) {
	sentinel := trace.Param{Addr: 0xdead_beef, Size: 1, Mode: trace.Out}
	for _, s := range slabSources() {
		first := Collect(s)
		want := cloneTasks(first.Tasks)
		for k, task := range first.Tasks {
			if len(task.Params) != cap(task.Params) {
				t.Fatalf("%s: task %d has len %d, cap %d", s.Name(), k, len(task.Params), cap(task.Params))
			}
			_ = append(task.Params, sentinel)
		}
		if k := firstDiff(first.Tasks, want); k >= 0 {
			t.Fatalf("%s: appending to task %d's predecessor changed it", s.Name(), k)
		}
		second := Collect(s)
		// Scribble over the first pass: the second must not share its memory.
		for _, task := range first.Tasks {
			clear(task.Params)
		}
		if k := firstDiff(second.Tasks, want); k >= 0 {
			t.Fatalf("%s: task %d differs after Reset", s.Name(), k)
		}
	}
}

func cloneTasks(tasks []trace.TaskSpec) []trace.TaskSpec {
	out := slices.Clone(tasks)
	for i := range out {
		out[i].Params = slices.Clone(out[i].Params)
	}
	return out
}

// firstDiff returns the index of the first task that differs, or -1.
func firstDiff(got, want []trace.TaskSpec) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if g.ID != w.ID || g.Func != w.Func || g.Exec != w.Exec || g.MemRead != w.MemRead ||
			g.MemWrite != w.MemWrite || !slices.Equal(g.Params, w.Params) {
			return k
		}
	}
	return -1
}
