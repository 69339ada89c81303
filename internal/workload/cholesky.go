package workload

import (
	"fmt"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// Blocked (tiled) Cholesky factorisation — the canonical StarSs/SMPSs
// application beyond the paper's benchmarks, included as an extension (the
// paper's introduction motivates StarSs with exactly this class of dense
// linear-algebra task graphs). The right-looking algorithm over a TxT grid
// of BxB tiles generates four task kinds per step k:
//
//	POTRF(k):    inout A[k][k]                      (factor the diagonal)
//	TRSM(i,k):   in A[k][k],  inout A[i][k]   i>k   (panel solve)
//	SYRK(i,k):   in A[i][k],  inout A[i][i]   i>k   (diagonal update)
//	GEMM(i,j,k): in A[i][k], A[j][k], inout A[i][j]  i>j>k (trailing update)
//
// The graph mixes chains (POTRF -> TRSM -> next POTRF), wide fan-out (one
// POTRF feeds T-k TRSMs) and heavy inout reuse (every A[i][j] is rewritten
// T times), exercising all the Dependence Table mechanisms at once.
type CholeskyConfig struct {
	// Tiles is the grid dimension T (the matrix is T*B x T*B).
	Tiles int
	// TileSize is B, the tile dimension; zero selects 64.
	TileSize int
	// BaseAddr is the address of tile (0,0).
	BaseAddr uint64
}

func (c *CholeskyConfig) fill() {
	if c.TileSize == 0 {
		c.TileSize = 64
	}
	if c.BaseAddr == 0 {
		c.BaseAddr = 0x8000_0000
	}
}

// CholeskyTaskCount returns the number of tasks a T-tile factorisation
// generates: T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk + T(T-1)(T-2)/6 gemm.
func CholeskyTaskCount(t int) int {
	if t < 1 {
		return 0
	}
	return t + t*(t-1)/2 + t*(t-1)/2 + t*(t-1)*(t-2)/6
}

// Cholesky kernel identifiers stored in TaskSpec.Func.
const (
	CholPOTRF = 10
	CholTRSM  = 11
	CholSYRK  = 12
	CholGEMM  = 13
)

type choleskySource struct {
	cfg CholeskyConfig
	id  uint64
	// Cursor over the k-major generation order.
	k, phase, i, j int
	params         paramSlab
}

// Cholesky returns the tiled Cholesky task graph for cfg.
func Cholesky(cfg CholeskyConfig) Source {
	if cfg.Tiles < 1 {
		panic("workload: Cholesky needs Tiles >= 1")
	}
	cfg.fill()
	s := &choleskySource{cfg: cfg}
	s.Reset()
	return s
}

func (s *choleskySource) Name() string {
	return fmt.Sprintf("cholesky-%dx%d-b%d", s.cfg.Tiles, s.cfg.Tiles, s.cfg.TileSize)
}

func (s *choleskySource) Total() int { return CholeskyTaskCount(s.cfg.Tiles) }

func (s *choleskySource) Reset() {
	s.id = 0
	s.k = 0
	s.phase = 0
	s.i = 0
	s.j = 0
}

func (s *choleskySource) tileAddr(i, j int) uint64 {
	bytes := uint64(s.cfg.TileSize * s.cfg.TileSize * floatBytes)
	return s.cfg.BaseAddr + uint64(i*s.cfg.Tiles+j)*bytes
}

func (s *choleskySource) tileBytes() int {
	return s.cfg.TileSize * s.cfg.TileSize * floatBytes
}

// kernelTimes converts kernel FLOPs and moved tiles into durations.
func (s *choleskySource) kernelTimes(flops float64, tilesRead, tilesWritten int) (exec, mr, mw sim.Time) {
	exec = sim.Time(flops / coreGFLOPS * float64(sim.Nanosecond))
	chunk := func(bytes int) sim.Time {
		n := (bytes + memChunkBytes - 1) / memChunkBytes
		return sim.Time(n) * memChunkTime
	}
	mr = chunk(tilesRead * s.tileBytes())
	mw = chunk(tilesWritten * s.tileBytes())
	return exec, mr, mw
}

func (s *choleskySource) Next() (trace.TaskSpec, bool) {
	T := s.cfg.Tiles
	if s.k >= T {
		return trace.TaskSpec{}, false
	}
	b := float64(s.cfg.TileSize)
	size := uint32(s.tileBytes())
	t := trace.TaskSpec{ID: s.id}
	k := s.k
	switch s.phase {
	case 0: // POTRF(k)
		t.Func = CholPOTRF
		t.Exec, t.MemRead, t.MemWrite = s.kernelTimes(b*b*b/3, 1, 1)
		t.Params = append(s.params.take(1), trace.Param{Addr: s.tileAddr(k, k), Size: size, Mode: trace.InOut})
		s.phase, s.i = 1, k+1
	case 1: // TRSM(i,k)
		i := s.i
		t.Func = CholTRSM
		t.Exec, t.MemRead, t.MemWrite = s.kernelTimes(b*b*b, 2, 1)
		t.Params = append(s.params.take(2),
			trace.Param{Addr: s.tileAddr(k, k), Size: size, Mode: trace.In},
			trace.Param{Addr: s.tileAddr(i, k), Size: size, Mode: trace.InOut})
		s.i++
	case 2: // SYRK(i,k)
		i := s.i
		t.Func = CholSYRK
		t.Exec, t.MemRead, t.MemWrite = s.kernelTimes(b*b*b, 2, 1)
		t.Params = append(s.params.take(2),
			trace.Param{Addr: s.tileAddr(i, k), Size: size, Mode: trace.In},
			trace.Param{Addr: s.tileAddr(i, i), Size: size, Mode: trace.InOut})
		s.i++
	case 3: // GEMM(i,j,k)
		i, j := s.i, s.j
		t.Func = CholGEMM
		t.Exec, t.MemRead, t.MemWrite = s.kernelTimes(2*b*b*b, 3, 1)
		t.Params = append(s.params.take(3),
			trace.Param{Addr: s.tileAddr(i, k), Size: size, Mode: trace.In},
			trace.Param{Addr: s.tileAddr(j, k), Size: size, Mode: trace.In},
			trace.Param{Addr: s.tileAddr(i, j), Size: size, Mode: trace.InOut})
		s.j++
		if s.j >= i {
			s.i++
			s.j = k + 1
		}
	}
	s.advance()
	s.id++
	return t, true
}

// advance skips exhausted (or empty, near the factorisation's end) phases
// until the cursor points at a valid next task or past the last step.
func (s *choleskySource) advance() {
	T := s.cfg.Tiles
	for {
		switch s.phase {
		case 0:
			return // POTRF(k) is valid whenever k < T (checked by Next)
		case 1, 2:
			if s.i <= T-1 {
				return
			}
			if s.phase == 1 {
				s.phase, s.i = 2, s.k+1
			} else {
				s.phase, s.i, s.j = 3, s.k+2, s.k+1
			}
		case 3:
			if s.i <= T-1 {
				return
			}
			s.k++
			s.phase = 0
			return
		}
	}
}
