package workload

import (
	"fmt"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// GaussianConfig parameterises the Gaussian-elimination-with-partial-pivoting
// task graph of the paper's Figure 5 and Table II.
//
// The graph works column by column on an N x N matrix. For each column
// i = 1..N-1 the pivot task T(i,i) selects the pivot (it must observe every
// row updated by the previous column, which is what partial pivoting
// requires), then the update tasks T(j,i), j = i+1..N, eliminate column i
// from row j. Task weights follow the paper's Equation (1):
//
//	W(T(i,i)) = N+1-i FLOPs        (diagonal / pivot task)
//	W(T(j,i)) = N-i   FLOPs, j > i (row-update task)
//
// and the duration of a task is its weight divided by the per-core GFLOPS.
// Each task also reads W floats from memory and writes W floats back.
//
// Input/output sets (see DESIGN.md). In the default (chained) model:
//
//	T(i,i): inout row(i)
//	T(j,i): in row(i);  inout row(j)
//
// so the pivot row written by T(i,i) is read by the N-i update tasks of its
// column: kick-off lists grow with N, exercising the dummy-*entry*
// mechanism, while every task fits one descriptor — which is the only way
// the paper's own configuration (4K Dependence Table entries, n up to 5000)
// can run at all, since a task's live parameters each hold a table entry.
//
// With PivotObservesAll the diagonal task additionally reads every
// remaining row (in row(i+1) .. row(N)), the literal partial-pivoting data
// flow of Figure 5: T(i+1,i+1) then waits for every update task of column
// i. This grows parameter lists with N and exercises the dummy-*task*
// mechanism, but is only feasible when N is small relative to the
// Dependence Table (a single task must never need more live entries than
// the table holds, or the hardware deadlocks — ours and the paper's alike).
type GaussianConfig struct {
	// N is the matrix dimension.
	N int
	// MemChunkTime is the time to move one 128-byte chunk off chip; zero
	// selects the paper's 12 ns (its CACTI model).
	MemChunkTime sim.Time
	// BaseAddr is the address of row 1; rows are laid out consecutively.
	BaseAddr uint64
	// PivotObservesAll selects the literal partial-pivoting data flow in
	// which T(i,i) reads every remaining row (see the package comment).
	PivotObservesAll bool
}

// The paper's per-core cost model, shared by the dense kernels (Gaussian,
// Cholesky): a 2 GFLOPS core working in single precision (the Cell-era
// element size), moving data off chip in 128-byte chunks, each 12 ns by
// the paper's CACTI model.
const (
	coreGFLOPS    = 2.0
	floatBytes    = 4
	memChunkBytes = 128
	memChunkTime  = 12 * sim.Nanosecond
)

func (c *GaussianConfig) fill() {
	if c.MemChunkTime == 0 {
		c.MemChunkTime = memChunkTime
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = 0x4000_0000
	}
}

// GaussianTaskCount returns the total number of tasks for an n x n matrix,
// (n^2+n-2)/2 as stated in the paper.
func GaussianTaskCount(n int) int {
	if n < 2 {
		return 0
	}
	return (n*n + n - 2) / 2
}

// GaussianWeight returns the weight in FLOPs of task T(j,i) per Equation (1).
func GaussianWeight(n, j, i int) int {
	if i == j {
		return n + 1 - i
	}
	return n - i
}

// GaussianMeanWeight returns the average task weight in FLOPs for an n x n
// matrix under Equation (1); Table II's column is reproduced from this.
func GaussianMeanWeight(n int) float64 {
	total := 0.0
	for i := 1; i <= n-1; i++ {
		total += float64(GaussianWeight(n, i, i))
		total += float64(n-i) * float64(GaussianWeight(n, n, i))
	}
	cnt := GaussianTaskCount(n)
	if cnt == 0 {
		return 0
	}
	return total / float64(cnt)
}

type gaussianSource struct {
	cfg    GaussianConfig
	id     uint64
	i, j   int // next task: T(j,i); j == i means diagonal
	params paramSlab
}

// Gaussian returns the Gaussian elimination task graph for cfg.
func Gaussian(cfg GaussianConfig) Source {
	if cfg.N < 2 {
		panic("workload: Gaussian needs N >= 2")
	}
	cfg.fill()
	s := &gaussianSource{cfg: cfg}
	s.Reset()
	return s
}

func (s *gaussianSource) Name() string {
	return fmt.Sprintf("gaussian-%dx%d", s.cfg.N, s.cfg.N)
}

func (s *gaussianSource) Total() int { return GaussianTaskCount(s.cfg.N) }

func (s *gaussianSource) Reset() {
	s.id = 0
	s.i, s.j = 1, 1
}

func (s *gaussianSource) rowAddr(j int) uint64 {
	return s.cfg.BaseAddr + uint64(j-1)*uint64(s.cfg.N*floatBytes)
}

func (s *gaussianSource) rowSize() uint32 {
	return uint32(s.cfg.N * floatBytes)
}

// taskTimes converts a FLOP weight into the three phase durations.
func (s *gaussianSource) taskTimes(w int) (exec, memRead, memWrite sim.Time) {
	// exec = W / GFLOPS; with W in FLOPs and GFLOPS in 1e9 FLOP/s the
	// duration in nanoseconds is W / GFLOPS.
	exec = sim.Time(float64(w) / coreGFLOPS * float64(sim.Nanosecond))
	bytes := w * floatBytes
	chunks := (bytes + memChunkBytes - 1) / memChunkBytes
	if chunks < 1 {
		chunks = 1
	}
	memRead = sim.Time(chunks) * s.cfg.MemChunkTime
	memWrite = memRead
	return exec, memRead, memWrite
}

func (s *gaussianSource) Next() (trace.TaskSpec, bool) {
	n := s.cfg.N
	if s.i > n-1 {
		return trace.TaskSpec{}, false
	}
	i, j := s.i, s.j
	w := GaussianWeight(n, j, i)
	exec, mr, mw := s.taskTimes(w)
	t := trace.TaskSpec{ID: s.id, Exec: exec, MemRead: mr, MemWrite: mw}
	s.id++
	if j == i {
		// Diagonal / pivot task: inout row(i), plus (optionally) reads of
		// every remaining row for the literal pivot-search data flow.
		t.Func = 1
		nIn := 0
		if s.cfg.PivotObservesAll {
			nIn = n - i
		}
		t.Params = append(s.params.take(nIn+1), trace.Param{Addr: s.rowAddr(i), Size: s.rowSize(), Mode: trace.InOut})
		for k := i + 1; k <= i+nIn; k++ {
			t.Params = append(t.Params, trace.Param{Addr: s.rowAddr(k), Size: s.rowSize(), Mode: trace.In})
		}
	} else {
		// Row-update task: in pivot row(i), inout row(j).
		t.Func = 2
		t.Params = append(s.params.take(2),
			trace.Param{Addr: s.rowAddr(i), Size: s.rowSize(), Mode: trace.In},
			trace.Param{Addr: s.rowAddr(j), Size: s.rowSize(), Mode: trace.InOut})
	}
	// Advance (j,i): diagonal, then j = i+1..n, then next column.
	if s.j == s.i {
		s.j = s.i + 1
	} else if s.j < n {
		s.j++
	} else {
		s.i++
		s.j = s.i
	}
	return t, true
}
