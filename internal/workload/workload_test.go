package workload

import (
	"math"
	"testing"
	"testing/quick"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

func TestPatternString(t *testing.T) {
	if PatternIndependent.String() != "independent" ||
		PatternWavefront.String() != "wavefront" ||
		PatternHorizontal.String() != "horizontal" ||
		PatternVertical.String() != "vertical" {
		t.Error("pattern names wrong")
	}
	if Pattern(99).String() != "pattern(99)" {
		t.Error("unknown pattern name wrong")
	}
}

func TestGridDefaults(t *testing.T) {
	s := Wavefront(1)
	if s.Total() != 8160 {
		t.Fatalf("Total = %d, want 8160 (120x68 macroblocks)", s.Total())
	}
	if s.Name() != "h264-wavefront-120x68" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestGridSourcesExhaustive(t *testing.T) {
	for _, s := range []Source{
		Independent(1), Wavefront(2), HorizontalChains(3), VerticalChains(4),
	} {
		if err := CheckExhaustive(s); err != nil {
			t.Error(err)
		}
	}
}

func TestGridReset(t *testing.T) {
	s := Wavefront(7)
	first, _ := s.Next()
	for i := 0; i < 10; i++ {
		s.Next()
	}
	s.Reset()
	again, _ := s.Next()
	if first.ID != again.ID || first.Exec != again.Exec || first.MemRead != again.MemRead {
		t.Fatal("Reset did not reproduce the stream")
	}
}

func TestWavefrontDependencyStructure(t *testing.T) {
	s := Grid(GridConfig{Pattern: PatternWavefront, Rows: 3, Cols: 4, Seed: 1})
	tr := Collect(s)
	if len(tr.Tasks) != 12 {
		t.Fatalf("tasks = %d", len(tr.Tasks))
	}
	// Task (0,0): no left, no up-right -> only self.
	if n := len(tr.Tasks[0].Params); n != 1 {
		t.Errorf("task (0,0) params = %d, want 1", n)
	}
	// Task (0,1): left only -> 2 params.
	if n := len(tr.Tasks[1].Params); n != 2 {
		t.Errorf("task (0,1) params = %d, want 2", n)
	}
	// Task (1,1): left and up-right -> 3 params.
	mid := tr.Tasks[1*4+1]
	if n := len(mid.Params); n != 3 {
		t.Fatalf("task (1,1) params = %d, want 3", n)
	}
	// Its inputs must be block (1,0) and block (0,2); self is inout.
	base := uint64(0x1000_0000)
	block := func(r, c int) uint64 { return base + uint64(r*4+c)*BlockBytes }
	if mid.Params[0].Addr != block(1, 0) || mid.Params[0].Mode != trace.In {
		t.Errorf("left param = %+v", mid.Params[0])
	}
	if mid.Params[1].Addr != block(0, 2) || mid.Params[1].Mode != trace.In {
		t.Errorf("upright param = %+v", mid.Params[1])
	}
	if mid.Params[2].Addr != block(1, 1) || mid.Params[2].Mode != trace.InOut {
		t.Errorf("self param = %+v", mid.Params[2])
	}
	// Last column has no up-right input even away from row 0.
	last := tr.Tasks[1*4+3]
	if n := len(last.Params); n != 2 {
		t.Errorf("task (1,3) params = %d, want 2 (no up-right at last column)", n)
	}
}

func TestHorizontalVerticalStructure(t *testing.T) {
	h := Collect(Grid(GridConfig{Pattern: PatternHorizontal, Rows: 2, Cols: 3, Seed: 1}))
	// (r,0) tasks have 1 param, others 2.
	for i, task := range h.Tasks {
		c := i % 3
		want := 2
		if c == 0 {
			want = 1
		}
		if len(task.Params) != want {
			t.Errorf("horizontal task %d params = %d, want %d", i, len(task.Params), want)
		}
	}
	v := Collect(Grid(GridConfig{Pattern: PatternVertical, Rows: 3, Cols: 2, Seed: 1}))
	for i, task := range v.Tasks {
		r := i / 2
		want := 2
		if r == 0 {
			want = 1
		}
		if len(task.Params) != want {
			t.Errorf("vertical task %d params = %d, want %d", i, len(task.Params), want)
		}
	}
}

func TestIndependentHasNoSharedAddresses(t *testing.T) {
	tr := Collect(Independent(5))
	seen := make(map[uint64]bool, len(tr.Tasks))
	for _, task := range tr.Tasks {
		if len(task.Params) != 1 {
			t.Fatalf("independent task has %d params", len(task.Params))
		}
		a := task.Params[0].Addr
		if seen[a] {
			t.Fatalf("address %#x reused", a)
		}
		seen[a] = true
	}
}

func TestGridTimesMatchPaperMeans(t *testing.T) {
	tr := Collect(Wavefront(42))
	var exec, mem sim.Time
	for _, task := range tr.Tasks {
		exec += task.Exec
		mem += task.MemRead + task.MemWrite
	}
	n := sim.Time(len(tr.Tasks))
	execUs := (exec / n).Microseconds()
	memUs := (mem / n).Microseconds()
	if math.Abs(execUs-11.8) > 0.6 {
		t.Errorf("mean exec = %.2fus, want ~11.8us", execUs)
	}
	if math.Abs(memUs-7.5) > 0.5 {
		t.Errorf("mean mem = %.2fus, want ~7.5us", memUs)
	}
}

func TestGaussianTaskCountTableII(t *testing.T) {
	// Table II's task-count column.
	cases := map[int]int{
		250:  31374,
		500:  125249,
		1000: 500499,
		3000: 4501499,
		5000: 12502499,
	}
	for n, want := range cases {
		if got := GaussianTaskCount(n); got != want {
			t.Errorf("GaussianTaskCount(%d) = %d, want %d", n, got, want)
		}
	}
	if GaussianTaskCount(1) != 0 || GaussianTaskCount(0) != 0 {
		t.Error("degenerate sizes should have zero tasks")
	}
}

func TestGaussianMeanWeightNearTableII(t *testing.T) {
	// Equation (1) reproduces Table II's average weight to within a few
	// FLOPs for small matrices (the paper's own numbers drift from Eq. (1)
	// for large N; `nexusbench exp table2` prints both columns).
	cases := map[int]float64{250: 167, 500: 334, 1000: 667}
	for n, want := range cases {
		got := GaussianMeanWeight(n)
		if math.Abs(got-want) > 2.0 {
			t.Errorf("GaussianMeanWeight(%d) = %.1f, want ~%.0f", n, got, want)
		}
	}
}

func TestGaussianSourceStructure(t *testing.T) {
	s := Gaussian(GaussianConfig{N: 5})
	if s.Total() != GaussianTaskCount(5) {
		t.Fatalf("Total = %d", s.Total())
	}
	if err := CheckExhaustive(s); err != nil {
		t.Fatal(err)
	}
	tr := Collect(s)
	// Submission order: T11, T21..T51, T22, T32..T52, T33, ...
	// First task (chained model): diagonal with inout row1 only.
	if got := len(tr.Tasks[0].Params); got != 1 {
		t.Errorf("T(1,1) params = %d, want 1", got)
	}
	if tr.Tasks[0].Params[0].Mode != trace.InOut {
		t.Error("T(1,1) first param should be inout row(1)")
	}
	// Full-pivot model: diagonal reads every remaining row.
	full := Collect(Gaussian(GaussianConfig{N: 5, PivotObservesAll: true}))
	if got := len(full.Tasks[0].Params); got != 5 {
		t.Errorf("full-pivot T(1,1) params = %d, want 5", got)
	}
	// Second task: T(2,1) with in row1, inout row2.
	t21 := tr.Tasks[1]
	if len(t21.Params) != 2 || t21.Params[0].Mode != trace.In || t21.Params[1].Mode != trace.InOut {
		t.Errorf("T(2,1) params = %+v", t21.Params)
	}
	// Diagonal weights: W(T(1,1)) = 5, update W(T(j,1)) = 4.
	// exec = W/2GFLOPS -> 2.5ns and 2ns.
	if tr.Tasks[0].Exec != sim.Time(2500*sim.Picosecond) {
		t.Errorf("T(1,1) exec = %v, want 2.5ns", tr.Tasks[0].Exec)
	}
	if tr.Tasks[1].Exec != 2*sim.Nanosecond {
		t.Errorf("T(2,1) exec = %v, want 2ns", tr.Tasks[1].Exec)
	}
}

func TestGaussianWeights(t *testing.T) {
	if GaussianWeight(10, 1, 1) != 10 {
		t.Errorf("W(T(1,1)) for n=10 = %d, want 10", GaussianWeight(10, 1, 1))
	}
	if GaussianWeight(10, 5, 1) != 9 {
		t.Errorf("W(T(5,1)) for n=10 = %d, want 9", GaussianWeight(10, 5, 1))
	}
	if GaussianWeight(10, 9, 9) != 2 {
		t.Errorf("W(T(9,9)) for n=10 = %d, want 2", GaussianWeight(10, 9, 9))
	}
}

func TestGaussianMemTimes(t *testing.T) {
	// W=64 FLOPs * 4B = 256B = 2 chunks of 128B -> 24ns each way.
	s := Gaussian(GaussianConfig{N: 65})
	task, _ := s.Next() // T(1,1): W = 65+1-1 = 65 -> 260B -> 3 chunks.
	if task.MemRead != 36*sim.Nanosecond || task.MemWrite != 36*sim.Nanosecond {
		t.Errorf("T(1,1) mem = %v/%v, want 36ns/36ns", task.MemRead, task.MemWrite)
	}
}

func TestGaussianPanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Gaussian(N=1) did not panic")
		}
	}()
	Gaussian(GaussianConfig{N: 1})
}

func TestFromTraceRoundTrip(t *testing.T) {
	orig := Collect(Grid(GridConfig{Pattern: PatternIndependent, Rows: 2, Cols: 2, Seed: 9}))
	s := FromTrace(orig)
	if err := CheckExhaustive(s); err != nil {
		t.Fatal(err)
	}
	if s.Name() != orig.Name {
		t.Errorf("Name = %q", s.Name())
	}
}

// Property: for any small grid geometry, every pattern produces a valid,
// exhaustive stream whose parameter addresses stay inside the grid.
func TestGridProperty(t *testing.T) {
	prop := func(rRaw, cRaw uint8, pRaw uint8, seed uint64) bool {
		rows := int(rRaw%12) + 1
		cols := int(cRaw%12) + 1
		p := Pattern(pRaw % 4)
		s := Grid(GridConfig{Pattern: p, Rows: rows, Cols: cols, Seed: seed})
		if CheckExhaustive(s) != nil {
			return false
		}
		s.Reset()
		base := uint64(0x1000_0000)
		limit := base + uint64(rows*cols)*BlockBytes
		for {
			task, ok := s.Next()
			if !ok {
				break
			}
			for _, prm := range task.Params {
				if prm.Addr < base || prm.Addr >= limit {
					return false
				}
				if (prm.Addr-base)%BlockBytes != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Gaussian sources are exhaustive and deterministic for any small N.
func TestGaussianProperty(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw%30) + 2
		s := Gaussian(GaussianConfig{N: n})
		if CheckExhaustive(s) != nil {
			return false
		}
		// Determinism across Reset.
		s.Reset()
		a, _ := s.Next()
		s.Reset()
		b, _ := s.Next()
		return a.ID == b.ID && a.Exec == b.Exec && len(a.Params) == len(b.Params)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
