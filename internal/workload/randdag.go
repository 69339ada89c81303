package workload

import (
	"fmt"
	"slices"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// RandomDAGConfig parameterises the seeded random-DAG generator: an
// irregular dependency graph with controllable fan-in and fan-out, the
// workload shape the dense regular kernels (Cholesky, Gaussian, wavefront)
// cannot produce. Each task writes one fresh segment and reads a random set
// of recently written segments:
//
//   - FanIn bounds the in-degree: task t draws uniform [0, FanIn] distinct
//     predecessors.
//   - Window bounds the fan-out indirectly: predecessors are drawn from the
//     last Window tasks, so one segment can be read by at most the Window
//     tasks that follow it — a small window makes deep narrow chains, a
//     large one wide diamonds.
//
// The stream is a deterministic function of Seed: Reset reseeds the PRNG,
// so replays, the dependency-graph oracle and every engine see the
// identical DAG.
type RandomDAGConfig struct {
	// Tasks is the number of tasks; zero selects 4096.
	Tasks int
	// FanIn is the maximum in-degree; zero selects 3.
	FanIn int
	// Window is how far back predecessors may reach; zero selects 64.
	Window int
	// Seed drives both the structure and the per-task durations.
	Seed uint64
	// BaseAddr is the address of task 0's output segment.
	BaseAddr uint64
}

const (
	// randDAGCellBytes is the size of one task's output segment.
	randDAGCellBytes = 64
	// randDAGExecMean is the mean execution time: a truncated normal with
	// sigma = mean/2, clamped to [mean/8, mean*4].
	randDAGExecMean = 2 * sim.Microsecond
)

func (c *RandomDAGConfig) fill() {
	if c.Tasks <= 0 {
		c.Tasks = 4096
	}
	if c.FanIn <= 0 {
		c.FanIn = 3
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = 0x3000_0000
	}
}

type randDAGSource struct {
	cfg    RandomDAGConfig
	rng    *sim.Rand
	next   int
	params paramSlab
}

// RandomDAG returns the seeded random-DAG workload for cfg.
func RandomDAG(cfg RandomDAGConfig) Source {
	cfg.fill()
	s := &randDAGSource{cfg: cfg}
	s.Reset()
	return s
}

func (s *randDAGSource) Name() string {
	return fmt.Sprintf("randdag-%d-f%d-w%d", s.cfg.Tasks, s.cfg.FanIn, s.cfg.Window)
}

func (s *randDAGSource) Total() int { return s.cfg.Tasks }

func (s *randDAGSource) Reset() {
	s.next = 0
	s.rng = sim.NewRand(s.cfg.Seed)
}

func (s *randDAGSource) segAddr(id int) uint64 {
	return s.cfg.BaseAddr + uint64(id)*randDAGCellBytes
}

func (s *randDAGSource) Next() (trace.TaskSpec, bool) {
	if s.next >= s.cfg.Tasks {
		return trace.TaskSpec{}, false
	}
	id := s.next
	s.next++
	exec := sim.Time(s.rng.TruncNorm(
		float64(randDAGExecMean), float64(randDAGExecMean)/2,
		float64(randDAGExecMean)/8, float64(randDAGExecMean)*4))
	t := trace.TaskSpec{ID: uint64(id), Exec: exec}
	window := s.cfg.Window
	if window > id {
		window = id
	}
	want := s.rng.Intn(s.cfg.FanIn + 1)
	if want > window {
		want = window
	}
	t.Params = s.params.take(want + 1)
	// Draw distinct predecessors from [id-window, id-1]. want is tiny
	// relative to the window in any sane configuration, so rejection
	// sampling terminates quickly; a duplicate draw is simply redrawn.
	for len(t.Params) < want {
		addr := s.segAddr(id - 1 - s.rng.Intn(window))
		if slices.ContainsFunc(t.Params, func(p trace.Param) bool { return p.Addr == addr }) {
			continue
		}
		t.Params = append(t.Params, trace.Param{
			Addr: addr,
			Size: randDAGCellBytes,
			Mode: trace.In,
		})
	}
	t.Params = append(t.Params, trace.Param{
		Addr: s.segAddr(id),
		Size: randDAGCellBytes,
		Mode: trace.Out,
	})
	return t, true
}
