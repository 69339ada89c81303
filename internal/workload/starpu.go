package workload

import (
	"fmt"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// StarPUDepsConfig parameterises the TaskTorrent/StarPU wait-chain grid
// (the `starpu_deps` mini-benchmark of the TaskTorrent suite): an
// n_rows x n_cols grid of tasks submitted column by column, where task
// (i, j) of column j > 0 waits on Edges tasks of column j-1, chosen by the
// wrap-around rule
//
//	i_before(k) = Rows - (((Rows - i - 1) + k) % Rows) - 1,  k = 0..Edges-1
//
// i.e. itself-in-the-previous-column plus the k-1 rows cyclically above it.
// Every task spins for a tunable fixed time, so the workload sweeps the
// resolver-overhead vs. task-grain plane the StarPU/TaskTorrent papers
// measure: many rows and few edges give wide, cheap resolution; many edges
// give deep kick-off lists; a short spin makes the resolver the bottleneck.
type StarPUDepsConfig struct {
	// Rows and Cols give the grid geometry; zero values select 32 x 64.
	Rows, Cols int
	// Edges is the number of wrap-around in-deps per task (clamped to
	// Rows); zero selects 3, matching the benchmark's middle operating
	// point. Column 0 has no in-deps regardless.
	Edges int
	// Spin is the fixed per-task execution time; zero selects 5us.
	Spin sim.Time
	// BaseAddr is the address of cell (0,0); cells are laid out column-major
	// in submission order.
	BaseAddr uint64
}

// starpuCellBytes is the size of one wait-chain cell: the benchmark carries
// no real data, so one machine word stands in for the StarPU handle.
const starpuCellBytes = 8

func (c *StarPUDepsConfig) fill() {
	if c.Rows <= 0 {
		c.Rows = 32
	}
	if c.Cols <= 0 {
		c.Cols = 64
	}
	if c.Edges == 0 {
		c.Edges = 3
	}
	if c.Edges > c.Rows {
		c.Edges = c.Rows
	}
	if c.Edges < 0 {
		c.Edges = 0
	}
	if c.Spin == 0 {
		c.Spin = 5 * sim.Microsecond
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = 0x2000_0000
	}
}

type starpuSource struct {
	cfg    StarPUDepsConfig
	next   int
	params paramSlab
}

// StarPUDeps returns the wait-chain grid workload for cfg. The stream is
// fully deterministic (no sampler): every task runs for exactly cfg.Spin.
func StarPUDeps(cfg StarPUDepsConfig) Source {
	cfg.fill()
	return &starpuSource{cfg: cfg}
}

func (s *starpuSource) Name() string {
	return fmt.Sprintf("starpu-deps-%dx%dx%d", s.cfg.Rows, s.cfg.Cols, s.cfg.Edges)
}

func (s *starpuSource) Total() int { return s.cfg.Rows * s.cfg.Cols }

func (s *starpuSource) Reset() { s.next = 0 }

// cellAddr returns the address of cell (i, j) in column-major layout.
func (s *starpuSource) cellAddr(i, j int) uint64 {
	return s.cfg.BaseAddr + uint64(j*s.cfg.Rows+i)*starpuCellBytes
}

func (s *starpuSource) Next() (trace.TaskSpec, bool) {
	if s.next >= s.Total() {
		return trace.TaskSpec{}, false
	}
	id := s.next
	s.next++
	// Column-major submission order, like the original benchmark's
	// for(j){for(i){...}} loop nest.
	j := id / s.cfg.Rows
	i := id % s.cfg.Rows
	t := trace.TaskSpec{
		ID:   uint64(id),
		Func: 0,
		Exec: s.cfg.Spin,
	}
	nDeps := 0
	if j > 0 {
		nDeps = s.cfg.Edges
	}
	t.Params = s.params.take(nDeps + 1)
	for k := 0; k < nDeps; k++ {
		iBefore := s.cfg.Rows - (((s.cfg.Rows - i - 1) + k) % s.cfg.Rows) - 1
		t.Params = append(t.Params, trace.Param{
			Addr: s.cellAddr(iBefore, j-1),
			Size: starpuCellBytes,
			Mode: trace.In,
		})
	}
	t.Params = append(t.Params, trace.Param{
		Addr: s.cellAddr(i, j),
		Size: starpuCellBytes,
		Mode: trace.Out,
	})
	return t, true
}
