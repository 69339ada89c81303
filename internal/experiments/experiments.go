// Package experiments contains one driver per table and figure of the
// Nexus++ paper's evaluation (SSV), plus the ablations DESIGN.md calls out.
// Each driver runs the simulators at the paper's operating points and
// renders a table whose rows correspond to the paper's data series;
// cmd/nexusbench and the repository-level benchmarks are thin wrappers
// around these functions.
package experiments

import (
	"fmt"
	"io"

	"nexuspp/internal/core"
	"nexuspp/internal/report"
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Full enables the paper-scale operating points that take minutes
	// (Gaussian n = 3000 and 5000). The default keeps every driver within
	// seconds while preserving the shapes.
	Full bool
	// Seed drives the synthetic trace generators.
	Seed uint64
	// Progress, when non-nil, receives one line per simulation run.
	Progress io.Writer
	// Cores optionally overrides the worker-count sweep of Fig7/Fig8.
	Cores []int
}

func (o *Options) seed() uint64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// runner caches single-worker baselines keyed by workload + config variant.
type runner struct {
	opts  *Options
	cache map[string]sim.Time
}

func newRunner(opts *Options) *runner {
	return &runner{opts: opts, cache: make(map[string]sim.Time)}
}

func (r *runner) run(cfg core.Config, src workload.Source, tag string) (*core.Result, error) {
	r.opts.logf("run %-28s workers=%-3d %s", src.Name(), cfg.Workers, tag)
	return core.Run(cfg, src)
}

// baseline returns the 1-worker makespan for the given config/workload,
// cached under key.
func (r *runner) baseline(key string, cfg core.Config, mk func() workload.Source) (sim.Time, error) {
	if t, ok := r.cache[key]; ok {
		return t, nil
	}
	bcfg := cfg
	bcfg.Workers = 1
	res, err := r.run(bcfg, mk(), "baseline")
	if err != nil {
		return 0, err
	}
	r.cache[key] = res.Makespan
	return res.Makespan, nil
}

// Table2 reproduces Table II: Gaussian elimination task counts and average
// task weights for the paper's matrix sizes. It is a property of the
// workload generator (Equation 1), not a simulation.
func Table2(opts Options) *report.Table {
	t := report.NewTable(
		"Table II: Gaussian elimination tasks for different matrix sizes",
		"matrix dim", "# tasks", "# tasks (paper)", "avg weight (Eq.1)", "avg weight (paper)")
	paperTasks := map[int]int{250: 31374, 500: 125249, 1000: 500499, 3000: 4501499, 5000: 12502499}
	paperWeight := map[int]float64{250: 167, 500: 334, 1000: 667, 3000: 2012, 5000: 3523}
	for _, n := range []int{250, 500, 1000, 3000, 5000} {
		t.AddRow(n, workload.GaussianTaskCount(n), paperTasks[n],
			workload.GaussianMeanWeight(n), paperWeight[n])
	}
	t.AddNote("task counts follow (n^2+n-2)/2 exactly; Equation (1) reproduces the paper's average weights for n<=1000 and drifts ~5%% below for n=5000")
	return t
}

// Fig6 reproduces the design-space exploration of Figure 6: speedup of the
// independent-task benchmark on 256 double-buffered cores with
// contention-free memory, sweeping the Dependence Table size (Task Pool
// fixed at 8K) and the Task Pool size (Dependence Table fixed at 8K), plus
// the longest Dependence Table chain as a function of the table size.
func Fig6(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	mk := func() workload.Source { return workload.Independent(opts.seed()) }
	base := core.DefaultConfig(256)
	base.Mem.ContentionFree = true
	base.TaskPoolEntries = 8192
	base.DepTableEntries = 8192
	t1, err := r.baseline("fig6", base, mk)
	if err != nil {
		return nil, err
	}

	dtSweep := &report.Series{Name: "speedup (TP=8K, DT=x)"}
	chains := &report.Series{Name: "longest DT chain"}
	for _, dt := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		cfg := base
		cfg.DepTableEntries = dt
		res, err := r.run(cfg, mk(), fmt.Sprintf("DT=%d", dt))
		if err != nil {
			return nil, err
		}
		dtSweep.Add(float64(dt), float64(t1)/float64(res.Makespan))
		chains.Add(float64(dt), float64(res.MaxDTChain))
	}
	tpSweep := &report.Series{Name: "speedup (DT=8K, TP=x)"}
	for _, tp := range []int{128, 256, 512, 1024, 2048, 4096, 8192} {
		cfg := base
		cfg.TaskPoolEntries = tp
		res, err := r.run(cfg, mk(), fmt.Sprintf("TP=%d", tp))
		if err != nil {
			return nil, err
		}
		tpSweep.Add(float64(tp), float64(t1)/float64(res.Makespan))
	}
	t := report.SeriesTable(
		"Figure 6: speedup vs Task Pool / Dependence Table size (independent tasks, 256 cores, double buffering, contention-free memory)",
		"entries", dtSweep, tpSweep, chains)
	t.AddNote("paper: speedup saturates at 143x from DT=2K / TP=512; chains roughly halve from DT 2K to 4K")
	return t, nil
}

// Fig7 reproduces Figure 7: speedup of the four dependency patterns of
// Figure 4 against the worker-core count, with double buffering.
func Fig7(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	cores := opts.Cores
	if cores == nil {
		cores = []int{2, 4, 8, 16, 32, 64, 128, 256}
	}
	patterns := []struct {
		name string
		p    workload.Pattern
	}{
		{"independent", workload.PatternIndependent},
		{"wavefront (4a)", workload.PatternWavefront},
		{"horizontal (4b)", workload.PatternHorizontal},
		{"vertical (4c)", workload.PatternVertical},
	}
	var series []*report.Series
	for _, pat := range patterns {
		pat := pat
		mk := func() workload.Source {
			return workload.Grid(workload.GridConfig{Pattern: pat.p, Seed: opts.seed()})
		}
		cfg := core.DefaultConfig(1)
		t1, err := r.baseline("fig7-"+pat.name, cfg, mk)
		if err != nil {
			return nil, err
		}
		s := &report.Series{Name: pat.name}
		for _, c := range cores {
			ccfg := core.DefaultConfig(c)
			res, err := r.run(ccfg, mk(), "")
			if err != nil {
				return nil, err
			}
			s.Add(float64(c), float64(t1)/float64(res.Makespan))
		}
		series = append(series, s)
	}
	t := report.SeriesTable(
		"Figure 7: speedup vs cores for the Figure 4 dependency patterns (8160 H.264-sized tasks, double buffering)",
		"cores", series...)
	t.AddNote("paper shapes: horizontal saturates earliest (window-limited), vertical scales to ~64, independent is bounded by the 32-port memory beyond ~64 cores")
	return t, nil
}

// Fig8 reproduces Figure 8: Gaussian elimination speedup against the core
// count for a range of matrix sizes, with memory contention modeled and
// double buffering. The n=3000/5000 points require Options.Full.
func Fig8(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	cores := opts.Cores
	if cores == nil {
		cores = []int{2, 4, 8, 16, 32, 64}
	}
	type sizeCase struct {
		n       int
		halfMem bool
	}
	sizes := []sizeCase{{250, false}, {500, false}, {1000, false}}
	if opts.Full {
		sizes = append(sizes, sizeCase{3000, false}, sizeCase{5000, false}, sizeCase{5000, true})
	}
	var series []*report.Series
	for _, sc := range sizes {
		sc := sc
		gcfg := workload.GaussianConfig{N: sc.n}
		name := fmt.Sprintf("n=%d", sc.n)
		if sc.halfMem {
			// Sensitivity: the paper does not state its Gaussian memory
			// accounting; halving the per-float traffic (6ns per chunk)
			// shows where its 45x at 64 cores comes from.
			gcfg.MemChunkTime = 6 * sim.Nanosecond
			name += " (half mem traffic)"
		}
		mk := func() workload.Source { return workload.Gaussian(gcfg) }
		cfg := core.DefaultConfig(1)
		t1, err := r.baseline("fig8-"+name, cfg, mk)
		if err != nil {
			return nil, err
		}
		s := &report.Series{Name: name}
		for _, c := range cores {
			res, err := r.run(core.DefaultConfig(c), mk(), "")
			if err != nil {
				return nil, err
			}
			s.Add(float64(c), float64(t1)/float64(res.Makespan))
		}
		series = append(series, s)
	}
	t := report.SeriesTable(
		"Figure 8: Gaussian elimination speedup vs cores (memory contention modeled, double buffering)",
		"cores", series...)
	t.AddNote("paper: speedup grows with matrix size; n=5000 reaches ~45x at 64 cores, n=250 peaks at 2.3x around 4 cores")
	if !opts.Full {
		t.AddNote("n=3000/5000 omitted (enable with -full); they add millions of tasks per run")
	}
	return t, nil
}

// AblationRenaming contrasts the paper's WAR/WAW safe-guard with the
// renaming alternative it mentions (RenameFalseDeps): pure writers fork
// fresh segment versions instead of waiting. A WAW-heavy workload gains;
// the price is Dependence Table pressure (one slot per live version).
func AblationRenaming(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	t := report.NewTable(
		"Ablation: WAR/WAW safe-guard vs renaming (16 cores)",
		"workload", "mode", "makespan", "max DT occupancy")
	cases := []struct {
		name string
		mk   func() workload.Source
	}{
		{"hot-output rewrite", func() workload.Source { return hotWriteSource(opts.seed(), 2000, 8) }},
		{"wavefront", func() workload.Source {
			return workload.Grid(workload.GridConfig{Pattern: workload.PatternWavefront, Seed: opts.seed()})
		}},
	}
	for _, c := range cases {
		for _, rename := range []bool{false, true} {
			cfg := core.DefaultConfig(16)
			cfg.RenameFalseDeps = rename
			mode := "safe-guard (paper)"
			if rename {
				mode = "renaming"
			}
			res, err := r.run(cfg, c.mk(), mode)
			if err != nil {
				return nil, err
			}
			t.AddRow(c.name, mode, res.Makespan.String(), res.MaxDTOccupancy)
		}
	}
	t.AddNote("renaming helps only workloads with pure-writer WAW/WAR conflicts, supporting the paper's choice to keep tables small; StarSs wavefront codes use inout and open no versions, and their small shift is renaming's Handle Finished reading each task's version tag instead of walking the bucket chain")
	return t, nil
}

// hotWriteSource builds a WAW-heavy workload: n tasks each rewriting one of
// k hot output blocks, with a 25% sprinkle of readers.
func hotWriteSource(seed uint64, n, k int) workload.Source {
	rng := sim.NewRand(seed)
	tasks := make([]trace.TaskSpec, n)
	for i := range tasks {
		mode := trace.Out
		if rng.Intn(4) == 0 {
			mode = trace.In
		}
		tasks[i] = trace.TaskSpec{
			ID:     uint64(i),
			Params: []trace.Param{{Addr: uint64(rng.Intn(k)+1) * 1024, Size: 1024, Mode: mode}},
			Exec:   sim.Time(rng.Intn(8000)+2000) * sim.Nanosecond,
		}
	}
	return workload.FromTrace(&trace.Trace{Name: fmt.Sprintf("hot-write-%d", k), Tasks: tasks})
}

// Headline reproduces the paper's headline speedups for the independent
// task benchmark with double buffering: 54x at 64 cores with memory
// contention, 143x at 256 cores contention-free, and 221x at 256 cores
// contention-free with the task-preparation delay disabled.
func Headline(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	mk := func() workload.Source { return workload.Independent(opts.seed()) }

	type point struct {
		label    string
		workers  int
		contFree bool
		noPrep   bool
		paper    string
	}
	points := []point{
		{"64 cores, memory contention", 64, false, false, "54x"},
		{"256 cores, memory contention", 256, false, false, "(plateau)"},
		{"256 cores, contention-free", 256, true, false, "143x"},
		{"256 cores, contention-free, no prep delay", 256, true, true, "221x"},
		{"512 cores, contention-free", 512, true, false, "-"},
		{"512 cores, contention-free, no prep delay", 512, true, true, "-"},
	}
	t := report.NewTable(
		"Headline: independent tasks, double buffering (speedup vs 1 core)",
		"operating point", "speedup", "paper")
	for _, p := range points {
		cfg := core.DefaultConfig(p.workers)
		cfg.Mem.ContentionFree = p.contFree
		cfg.DisableTaskPrep = p.noPrep
		key := "headline"
		if p.contFree {
			key += "-cf"
		}
		t1, err := r.baseline(key, cfg, mk)
		if err != nil {
			return nil, err
		}
		res, err := r.run(cfg, mk(), p.label)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.label, float64(t1)/float64(res.Makespan), p.paper)
	}
	t.AddNote("our fully pipelined Task Maestro sustains ~1 task per 44ns, so the contention-free plateau lands above the paper's 143x; the memory-contention bound matches closely")
	return t, nil
}

// AblationBuffering sweeps the Task Controller buffering depth, the design
// choice SSIII motivates: depth 1 disables the prefetch overlap, depth 2 is
// the paper's double buffering, higher depths probe "in fact arbitrary"
// buffering.
func AblationBuffering(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	t := report.NewTable(
		"Ablation: Task Controller buffering depth (64 cores)",
		"workload", "depth", "makespan", "speedup vs depth 1")
	for _, pat := range []workload.Pattern{workload.PatternIndependent, workload.PatternWavefront} {
		pat := pat
		mk := func() workload.Source {
			return workload.Grid(workload.GridConfig{Pattern: pat, Seed: opts.seed()})
		}
		var depth1 sim.Time
		for _, depth := range []int{1, 2, 4} {
			cfg := core.DefaultConfig(64)
			cfg.BufferingDepth = depth
			res, err := r.run(cfg, mk(), fmt.Sprintf("depth=%d", depth))
			if err != nil {
				return nil, err
			}
			if depth == 1 {
				depth1 = res.Makespan
			}
			t.AddRow(pat.String(), depth, res.Makespan.String(),
				float64(depth1)/float64(res.Makespan))
		}
	}
	t.AddNote("double buffering hides the Get Inputs / Put Outputs phases behind execution; deeper buffering adds little once the memory phases are fully hidden")
	return t, nil
}

// AblationDummies contrasts Nexus++'s dummy tasks/entries against
// original-Nexus hard limits: workloads with wide parameter lists or wide
// dependency fan-out run on Nexus++ and abort on Nexus.
func AblationDummies(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	t := report.NewTable(
		"Ablation: dummy tasks and dummy entries vs fixed limits (4 cores)",
		"workload", "system", "outcome", "dummy TDs", "dummy DT segments")

	runCase := func(name string, cfg core.Config, mk func() workload.Source, system string) error {
		res, err := r.run(cfg, mk(), system)
		if err != nil {
			t.AddRow(name, system, "FAILS: "+trim(err.Error(), 60), "-", "-")
			return nil
		}
		t.AddRow(name, system, fmt.Sprintf("completes in %v", res.Makespan),
			res.DummyTDs, res.DummyDTSegments)
		return nil
	}

	// Wide parameter lists: full-pivot Gaussian tasks carry up to n params.
	mkWide := func() workload.Source {
		return workload.Gaussian(workload.GaussianConfig{N: 24, PivotObservesAll: true})
	}
	plus := core.DefaultConfig(4)
	if err := runCase("gaussian-24 full pivot", plus, mkWide, "Nexus++"); err != nil {
		return nil, err
	}
	hard := core.DefaultConfig(4)
	hard.MaxParamsPerTD = 5
	hard.HardParamLimit = true
	if err := runCase("gaussian-24 full pivot", hard, mkWide, "Nexus (5-param limit)"); err != nil {
		return nil, err
	}

	// Wide dependency fan-out, deterministic: one long-running producer
	// whose output 120 tasks read — the kick-off list must chain 15 dummy
	// segments of 8 slots.
	mkFan := func() workload.Source { return fanOutSource(120) }
	if err := runCase("fan-out-120", core.DefaultConfig(4), mkFan, "Nexus++"); err != nil {
		return nil, err
	}
	hardKO := core.DefaultConfig(4)
	hardKO.HardKickOffLimit = true
	if err := runCase("fan-out-120", hardKO, mkFan, "Nexus (fixed kick-off)"); err != nil {
		return nil, err
	}

	// Gaussian elimination: the paper's real case. The kick-off pressure is
	// dynamic (it depends on how many update tasks pile up behind each
	// pivot), so run it on few cores where readers drain slowly.
	mkGauss := func() workload.Source {
		return workload.Gaussian(workload.GaussianConfig{N: 250})
	}
	if err := runCase("gaussian-250", core.DefaultConfig(4), mkGauss, "Nexus++"); err != nil {
		return nil, err
	}
	hardKO2 := core.DefaultConfig(4)
	hardKO2.HardKickOffLimit = true
	if err := runCase("gaussian-250", hardKO2, mkGauss, "Nexus (fixed kick-off)"); err != nil {
		return nil, err
	}
	t.AddNote("the paper: applications that could not be executed by Nexus, such as Gaussian elimination, run efficiently on Nexus++")
	return t, nil
}

// AblationPorts contrasts fully pipelined Maestro tables (every block has
// its own SRAM port, our default and the paper's implicit assumption) with
// single-ported tables, where blocks touching the same table serialise.
// This is the main candidate explanation for why our contention-free
// plateau exceeds the paper's 143x: an implementation with single-ported
// SRAMs loses exactly this kind of block-level overlap.
func AblationPorts(opts Options) (*report.Table, error) {
	r := newRunner(&opts)
	mk := func() workload.Source { return workload.Independent(opts.seed()) }
	t := report.NewTable(
		"Ablation: Task Pool / Dependence Table ports (independent tasks, 256 cores, contention-free)",
		"table ports", "speedup", "makespan")
	type variant struct {
		label        string
		ports        int
		conservative bool
	}
	variants := []variant{
		{"unlimited (pipelined)", 0, false},
		{"2 per table", 2, false},
		{"1 per table", 1, false},
		{"1 per table, 3x access cost", 1, true},
	}
	for _, v := range variants {
		cfg := core.DefaultConfig(256)
		cfg.Mem.ContentionFree = true
		cfg.TablePorts = v.ports
		if v.conservative {
			// Read-modify-write as three SRAM operations per logical
			// access instead of one.
			cfg.Costs.CheckDepsPerAccess = 3
			cfg.Costs.HandleFinPerAccess = 3
		}
		t1, err := r.baseline("ports", core.DefaultConfig(256), mk)
		if err != nil {
			return nil, err
		}
		res, err := r.run(cfg, mk(), v.label)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.label, float64(t1)/float64(res.Makespan), res.Makespan.String())
	}
	t.AddNote("single-ported tables with a conservative 3-operations-per-access cost land near the paper's 143x plateau; our default fully pipelined model sits above it")
	return t, nil
}

// fanOutSource builds the deterministic wide-fan-out workload: one
// 500us producer followed by n 1us readers of its output.
func fanOutSource(n int) workload.Source {
	tasks := []trace.TaskSpec{{
		ID:     0,
		Params: []trace.Param{{Addr: 0xF0000, Size: 4, Mode: trace.Out}},
		Exec:   500 * sim.Microsecond,
	}}
	for i := 1; i <= n; i++ {
		tasks = append(tasks, trace.TaskSpec{
			ID:     uint64(i),
			Params: []trace.Param{{Addr: 0xF0000, Size: 4, Mode: trace.In}},
			Exec:   sim.Microsecond,
		})
	}
	return workload.FromTrace(&trace.Trace{Name: fmt.Sprintf("fan-out-%d", n), Tasks: tasks})
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
