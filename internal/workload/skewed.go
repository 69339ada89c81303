package workload

import (
	"fmt"
	"math"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// SpatialSkewConfig parameterises the skewed-cost spatial-decomposition
// workload: a Rows x Cols tile grid swept Sweeps times, where every task
// updates its own tile (inout) after reading its four von-Neumann
// neighbours (in). Within one sweep the row-major submission order makes a
// task wait on the up/left neighbours updated earlier in the same sweep and
// on the down/right neighbours of the previous sweep — the classic
// neighbour-exchange stencil of spatial decompositions.
//
// Per-task costs are drawn from a bounded Pareto distribution
// (factor = u^(-1/Alpha), clamped to MaxFactor), so a few tiles are far more
// expensive than the rest. This is the serialization-effects regime (arXiv
// 1401.4441): under a barrier per sweep the heavy tiles idle every core,
// while dependency-aware scheduling lets cheap neighbours of the next sweep
// start early — exactly what makes the resolver's work visible.
type SpatialSkewConfig struct {
	// Rows and Cols give the tile grid; zero values select 16 x 16.
	Rows, Cols int
	// Sweeps is the number of grid sweeps; zero selects 4.
	Sweeps int
	// BaseExec is the minimum per-task execution time; zero selects 2us.
	BaseExec sim.Time
	// Alpha is the Pareto tail index; smaller means heavier skew. Zero
	// selects 1.2.
	Alpha float64
	// MaxFactor clamps the cost multiplier; zero selects 64.
	MaxFactor float64
	// Seed drives the cost sampler.
	Seed uint64
	// BaseAddr is the address of tile (0,0); tiles are laid out row-major.
	BaseAddr uint64
}

// skewTileBytes is the size of one spatial tile (a 32x32 patch of 4-byte
// cells).
const skewTileBytes = 32 * 32 * 4

func (c *SpatialSkewConfig) fill() {
	if c.Rows <= 0 {
		c.Rows = 16
	}
	if c.Cols <= 0 {
		c.Cols = 16
	}
	if c.Sweeps <= 0 {
		c.Sweeps = 4
	}
	if c.BaseExec == 0 {
		c.BaseExec = 2 * sim.Microsecond
	}
	if c.Alpha == 0 {
		c.Alpha = 1.2
	}
	if c.MaxFactor == 0 {
		c.MaxFactor = 64
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = 0x5000_0000
	}
}

type spatialSkewSource struct {
	cfg    SpatialSkewConfig
	rng    *sim.Rand
	next   int
	params paramSlab
}

// SpatialSkew returns the skewed-cost spatial-decomposition workload for
// cfg. The stream is a deterministic function of cfg.Seed.
func SpatialSkew(cfg SpatialSkewConfig) Source {
	cfg.fill()
	s := &spatialSkewSource{cfg: cfg}
	s.Reset()
	return s
}

func (s *spatialSkewSource) Name() string {
	return fmt.Sprintf("spatial-skew-%dx%dx%d", s.cfg.Rows, s.cfg.Cols, s.cfg.Sweeps)
}

func (s *spatialSkewSource) Total() int { return s.cfg.Rows * s.cfg.Cols * s.cfg.Sweeps }

func (s *spatialSkewSource) Reset() {
	s.next = 0
	s.rng = sim.NewRand(s.cfg.Seed)
}

func (s *spatialSkewSource) tileAddr(r, c int) uint64 {
	return s.cfg.BaseAddr + uint64(r*s.cfg.Cols+c)*skewTileBytes
}

// sampleExec draws one bounded-Pareto task duration.
func (s *spatialSkewSource) sampleExec() sim.Time {
	u := s.rng.Float64()
	if u == 0 {
		u = 0.5
	}
	factor := math.Pow(1/u, 1/s.cfg.Alpha)
	if factor > s.cfg.MaxFactor {
		factor = s.cfg.MaxFactor
	}
	return sim.Time(float64(s.cfg.BaseExec) * factor)
}

func (s *spatialSkewSource) Next() (trace.TaskSpec, bool) {
	if s.next >= s.Total() {
		return trace.TaskSpec{}, false
	}
	id := s.next
	s.next++
	perSweep := s.cfg.Rows * s.cfg.Cols
	cell := id % perSweep
	r := cell / s.cfg.Cols
	c := cell % s.cfg.Cols
	t := trace.TaskSpec{
		ID:   uint64(id),
		Func: uint32(id / perSweep),
		Exec: s.sampleExec(),
		// One tile in, one tile out per chunked off-chip transfer quantum.
		MemRead:  sim.Time(skewTileBytes/128) * 12 * sim.Nanosecond,
		MemWrite: sim.Time(skewTileBytes/128) * 12 * sim.Nanosecond,
	}
	t.Params = s.params.take(1 + b2i(r > 0) + b2i(r < s.cfg.Rows-1) + b2i(c > 0) + b2i(c < s.cfg.Cols-1))
	for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
		nr, nc := r+d[0], c+d[1]
		if nr < 0 || nr >= s.cfg.Rows || nc < 0 || nc >= s.cfg.Cols {
			continue
		}
		t.Params = append(t.Params, trace.Param{
			Addr: s.tileAddr(nr, nc),
			Size: skewTileBytes,
			Mode: trace.In,
		})
	}
	t.Params = append(t.Params, trace.Param{
		Addr: s.tileAddr(r, c),
		Size: skewTileBytes,
		Mode: trace.InOut,
	})
	return t, true
}
