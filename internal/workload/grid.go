package workload

import (
	"fmt"

	"nexuspp/internal/trace"
)

// Pattern selects one of the dependency patterns of the paper's Figure 4.
type Pattern uint8

const (
	// PatternIndependent has no inter-task dependencies; the paper uses it
	// "to measure the maximum scalability of Nexus++".
	PatternIndependent Pattern = iota
	// PatternWavefront is the H.264 macroblock pattern of Figure 4(a):
	// block (r,c) depends on its left neighbour (r,c-1) and its up-right
	// neighbour (r-1,c+1), producing the ramping parallelism profile.
	PatternWavefront
	// PatternHorizontal is Figure 4(b): chains along the task-generation
	// direction; block (r,c) depends on (r,c-1).
	PatternHorizontal
	// PatternVertical is Figure 4(c): chains across the task-generation
	// direction; block (r,c) depends on (r-1,c).
	PatternVertical
)

// String returns a short name for the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternIndependent:
		return "independent"
	case PatternWavefront:
		return "wavefront"
	case PatternHorizontal:
		return "horizontal"
	case PatternVertical:
		return "vertical"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Default grid geometry: one full-HD frame of 16x16-pixel macroblocks,
// 1920/16 x 1088/16, iterated as in the paper's Listing 1 (outer dimension
// 120, inner dimension 68, 8160 tasks).
const (
	DefaultRows = 120
	DefaultCols = 68
	// BlockBytes is the size of one 16x16 macroblock of 4-byte pixels.
	BlockBytes = 16 * 16 * 4
)

// GridConfig parameterises the Figure 4 generators.
type GridConfig struct {
	Pattern Pattern
	// Rows and Cols give the grid geometry; zero values select the paper's
	// 120x68 full-HD frame.
	Rows, Cols int
	// Seed drives the per-task time sampler.
	Seed uint64
	// Times overrides the sampler; nil selects the H.264 statistics
	// (11.8us execution, 7.5us memory) with Seed.
	Times trace.TimeSampler
	// BaseAddr is the address of block (0,0); blocks are laid out row-major.
	BaseAddr uint64
}

func (c *GridConfig) fill() {
	if c.Rows == 0 {
		c.Rows = DefaultRows
	}
	if c.Cols == 0 {
		c.Cols = DefaultCols
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = 0x1000_0000
	}
}

type gridSource struct {
	cfg    GridConfig
	times  trace.TimeSampler
	next   int
	params paramSlab
}

// Grid returns a Source for one of the Figure 4 patterns.
func Grid(cfg GridConfig) Source {
	cfg.fill()
	s := &gridSource{cfg: cfg}
	s.Reset()
	return s
}

// Independent returns the paper's independent-task benchmark on the default
// full-HD grid.
func Independent(seed uint64) Source {
	return Grid(GridConfig{Pattern: PatternIndependent, Seed: seed})
}

// Wavefront returns the H.264 wavefront benchmark (Figure 4a).
func Wavefront(seed uint64) Source {
	return Grid(GridConfig{Pattern: PatternWavefront, Seed: seed})
}

// HorizontalChains returns the Figure 4(b) benchmark.
func HorizontalChains(seed uint64) Source {
	return Grid(GridConfig{Pattern: PatternHorizontal, Seed: seed})
}

// VerticalChains returns the Figure 4(c) benchmark.
func VerticalChains(seed uint64) Source {
	return Grid(GridConfig{Pattern: PatternVertical, Seed: seed})
}

func (s *gridSource) Name() string {
	return fmt.Sprintf("h264-%s-%dx%d", s.cfg.Pattern, s.cfg.Rows, s.cfg.Cols)
}

func (s *gridSource) Total() int { return s.cfg.Rows * s.cfg.Cols }

func (s *gridSource) Reset() {
	s.next = 0
	if s.cfg.Times != nil {
		s.times = s.cfg.Times
	} else {
		s.times = trace.NewH264Times(s.cfg.Seed)
	}
}

// blockAddr returns the base address of block (r,c).
func (s *gridSource) blockAddr(r, c int) uint64 {
	return s.cfg.BaseAddr + uint64(r*s.cfg.Cols+c)*BlockBytes
}

func (s *gridSource) Next() (trace.TaskSpec, bool) {
	if s.next >= s.Total() {
		return trace.TaskSpec{}, false
	}
	id := s.next
	s.next++
	r := id / s.cfg.Cols
	c := id % s.cfg.Cols
	exec, mr, mw := s.times.Sample()
	t := trace.TaskSpec{
		ID:       uint64(id),
		Func:     uint32(s.cfg.Pattern),
		Exec:     exec,
		MemRead:  mr,
		MemWrite: mw,
	}
	self := trace.Param{Addr: s.blockAddr(r, c), Size: BlockBytes, Mode: trace.InOut}
	switch s.cfg.Pattern {
	case PatternIndependent:
		t.Params = append(s.params.take(1), self)
	case PatternWavefront:
		// decode(left=X[r][c-1], upright=X[r-1][c+1], this=X[r][c])
		left, upright := c > 0, r > 0 && c < s.cfg.Cols-1
		t.Params = s.params.take(1 + b2i(left) + b2i(upright))
		if left {
			t.Params = append(t.Params, trace.Param{Addr: s.blockAddr(r, c-1), Size: BlockBytes, Mode: trace.In})
		}
		if upright {
			t.Params = append(t.Params, trace.Param{Addr: s.blockAddr(r-1, c+1), Size: BlockBytes, Mode: trace.In})
		}
		t.Params = append(t.Params, self)
	case PatternHorizontal:
		t.Params = s.params.take(1 + b2i(c > 0))
		if c > 0 {
			t.Params = append(t.Params, trace.Param{Addr: s.blockAddr(r, c-1), Size: BlockBytes, Mode: trace.In})
		}
		t.Params = append(t.Params, self)
	case PatternVertical:
		t.Params = s.params.take(1 + b2i(r > 0))
		if r > 0 {
			t.Params = append(t.Params, trace.Param{Addr: s.blockAddr(r-1, c), Size: BlockBytes, Mode: trace.In})
		}
		t.Params = append(t.Params, self)
	default:
		panic("workload: unknown pattern " + s.cfg.Pattern.String())
	}
	return t, true
}

// b2i counts a condition as one.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
