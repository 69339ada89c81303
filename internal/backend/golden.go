package backend

// Golden-file conformance corpus. For a canonical set of (workload, size)
// pairs — the GoldenCases — this file computes a Golden record per case: the
// dependency-graph oracle's observables (task count, edges, critical path,
// total work, poison-propagation count) and every engine's deterministic
// observables (task count, simulated makespan, dependency-order respect,
// poison counters on the executing runtimes). The records are committed as
// JSON under testdata/golden/ and diffed by the conformance test and by
// `nexusbench golden -check`, so any behavioural change to a resolver shows
// up as a readable field-level diff instead of slipping past a handful of
// hand-picked assertions. `nexusbench golden -regen` rewrites the corpus;
// regenerated goldens must ship with an explanation of why the behaviour
// moved (see README).
//
// Only deterministic observables are recorded: simulated makespans are
// bit-stable (the event kernel orders ties by insertion sequence), and the
// executing engines contribute task counts plus the poison counters of a
// gated failure-injection replay — every task is admitted before any body
// runs, so the skipped set is exactly the oracle's descendant set and does
// not depend on scheduling timing. Wall times and hazard counters are
// timing-dependent and deliberately excluded.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"nexuspp/internal/core"
	"nexuspp/internal/depgraph"
	"nexuspp/internal/softrts"
	"nexuspp/internal/starss"
	"nexuspp/internal/workload"
)

// GoldenCase is one canonical (workload, size) pair of the corpus. The
// sizes are deliberately small: the whole corpus must run in seconds so it
// can gate every change in CI.
type GoldenCase struct {
	// Name is the case key and the golden file stem.
	Name string
	// Workload is the registered workload family the case belongs to.
	Workload string
	// Workers and Seed pin the run configuration.
	Workers int
	Seed    uint64
	// New builds the case's source (the golden-sized variant of the
	// family, not the registered full-size default).
	New func(seed uint64) workload.Source
}

// GoldenCases returns the canonical corpus: every workload family in the
// registry at a golden-sized operating point, including the three irregular
// shapes (wait-chain, random DAG, skewed-cost spatial decomposition).
func GoldenCases() []GoldenCase {
	return []GoldenCase{
		{
			Name: "wavefront-12x10", Workload: "wavefront", Workers: 4, Seed: 42,
			New: func(seed uint64) workload.Source {
				return workload.Grid(workload.GridConfig{Pattern: workload.PatternWavefront, Rows: 12, Cols: 10, Seed: seed})
			},
		},
		{
			Name: "independent-8x8", Workload: "independent", Workers: 4, Seed: 42,
			New: func(seed uint64) workload.Source {
				return workload.Grid(workload.GridConfig{Pattern: workload.PatternIndependent, Rows: 8, Cols: 8, Seed: seed})
			},
		},
		{
			Name: "vertical-10x6", Workload: "vertical", Workers: 4, Seed: 42,
			New: func(seed uint64) workload.Source {
				return workload.Grid(workload.GridConfig{Pattern: workload.PatternVertical, Rows: 10, Cols: 6, Seed: seed})
			},
		},
		{
			Name: "gaussian-24", Workload: "gaussian", Workers: 4, Seed: 42,
			New: func(uint64) workload.Source {
				return workload.Gaussian(workload.GaussianConfig{N: 24})
			},
		},
		{
			Name: "cholesky-4x8", Workload: "cholesky", Workers: 4, Seed: 42,
			New: func(uint64) workload.Source {
				return workload.Cholesky(workload.CholeskyConfig{Tiles: 4, TileSize: 8})
			},
		},
		{
			Name: "starpu-deps-8x24x3", Workload: "starpu_deps", Workers: 4, Seed: 42,
			New: func(uint64) workload.Source {
				return workload.StarPUDeps(workload.StarPUDepsConfig{Rows: 8, Cols: 24, Edges: 3})
			},
		},
		{
			Name: "randdag-200", Workload: "randdag", Workers: 4, Seed: 42,
			New: func(seed uint64) workload.Source {
				return workload.RandomDAG(workload.RandomDAGConfig{Tasks: 200, FanIn: 3, Window: 24, Seed: seed})
			},
		},
		{
			Name: "spatial-skew-6x6x4", Workload: "skewed", Workers: 4, Seed: 42,
			New: func(seed uint64) workload.Source {
				return workload.SpatialSkew(workload.SpatialSkewConfig{Rows: 6, Cols: 6, Sweeps: 4, Seed: seed})
			},
		},
	}
}

// LookupGoldenCase resolves a case by name.
func LookupGoldenCase(name string) (GoldenCase, error) {
	var names []string
	for _, c := range GoldenCases() {
		if c.Name == name {
			return c, nil
		}
		names = append(names, c.Name)
	}
	return GoldenCase{}, fmt.Errorf("backend: unknown golden case %q (valid: %v)", name, names)
}

// GoldenOracle is the dependency-graph oracle's section of a golden record.
type GoldenOracle struct {
	Tasks          int   `json:"tasks"`
	Edges          int   `json:"edges"`
	CriticalPathPs int64 `json:"critical_path_ps"`
	TotalWorkPs    int64 `json:"total_work_ps"`
	MaxWidth       int   `json:"max_width"`
	// PoisonIndex is the task whose failure the poison replay injects;
	// PoisonSkipped is the size of its transitive-descendant set — the
	// number of tasks a behaviour-preserving runtime must skip.
	PoisonIndex   int `json:"poison_index"`
	PoisonSkipped int `json:"poison_skipped"`
}

// GoldenEngine is one engine's section of a golden record. Simulated
// engines contribute the makespan and dependency-order validation of their
// recorded schedule; executing engines contribute the poison counters of
// the gated failure-injection replay. An engine that cannot execute the
// workload (the original Nexus's hard structure limits) records the
// rejection message instead.
type GoldenEngine struct {
	Backend    string `json:"backend"`
	Simulated  bool   `json:"simulated,omitempty"`
	Tasks      uint64 `json:"tasks,omitempty"`
	MakespanPs int64  `json:"makespan_ps,omitempty"`
	ScheduleOK bool   `json:"schedule_ok,omitempty"`
	// PoisonFailed/PoisonSkipped are the executing engines' counters after
	// injecting one failure at Oracle.PoisonIndex with admission gated
	// ahead of execution.
	PoisonFailed  uint64 `json:"poison_failed,omitempty"`
	PoisonSkipped uint64 `json:"poison_skipped,omitempty"`
	Rejected      string `json:"rejected,omitempty"`
}

// Golden is one committed conformance record.
type Golden struct {
	Case     string         `json:"case"`
	Workload string         `json:"workload"`
	Workers  int            `json:"workers"`
	Seed     uint64         `json:"seed"`
	Oracle   GoldenOracle   `json:"oracle"`
	Engines  []GoldenEngine `json:"engines"`
}

// errGoldenPoison is the failure injected by the poison replay.
var errGoldenPoison = errors.New("golden: injected failure")

// ComputeGolden runs the oracle and every registered engine on one case and
// returns the resulting record. It is the single source of truth shared by
// -regen, -check and the conformance test.
func ComputeGolden(ctx context.Context, c GoldenCase) (*Golden, error) {
	g := depgraph.Build(c.New(c.Seed))
	an := g.Analyze()
	poisonIdx := g.NumTasks() / 3
	rec := &Golden{
		Case:     c.Name,
		Workload: c.Workload,
		Workers:  c.Workers,
		Seed:     c.Seed,
		Oracle: GoldenOracle{
			Tasks:          g.NumTasks(),
			Edges:          g.NumEdges(),
			CriticalPathPs: int64(an.CriticalPath),
			TotalWorkPs:    int64(an.TotalWork),
			MaxWidth:       an.MaxWidth,
			PoisonIndex:    poisonIdx,
			PoisonSkipped:  descendantCount(g, poisonIdx),
		},
	}
	for _, b := range All() {
		eng := GoldenEngine{Backend: b.Name()}
		rep, err := b.Run(ctx, Config{Workers: c.Workers, RecordSchedule: true, ZeroCost: true}, c.New(c.Seed))
		if err != nil {
			eng.Rejected = err.Error()
			rec.Engines = append(rec.Engines, eng)
			continue
		}
		eng.Simulated = rep.Simulated
		eng.Tasks = rep.TasksExecuted
		if rep.Simulated {
			eng.MakespanPs = int64(rep.Makespan)
			if sched := scheduleOf(rep); sched != nil {
				eng.ScheduleOK = g.ValidateSchedule(sched) == nil
			}
		} else {
			failed, skipped, err := poisonReplay(ctx, c, b.Name() == "maestro", poisonIdx)
			if err != nil {
				return nil, fmt.Errorf("golden %s: poison replay on %s: %w", c.Name, b.Name(), err)
			}
			eng.PoisonFailed = failed
			eng.PoisonSkipped = skipped
		}
		rec.Engines = append(rec.Engines, eng)
	}
	return rec, nil
}

// scheduleOf extracts a recorded schedule from an engine's typed detail.
func scheduleOf(rep *Report) []depgraph.Interval {
	switch d := rep.Detail.(type) {
	case *core.Result:
		return d.Schedule
	case *softrts.Result:
		return d.Schedule
	default:
		return nil
	}
}

// descendantCount returns the number of transitive successors of task idx.
func descendantCount(g *depgraph.Graph, idx int) int {
	if g.NumTasks() == 0 {
		return 0
	}
	seen := make(map[int32]struct{})
	stack := append([]int32(nil), g.Succs(idx)...)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		stack = append(stack, g.Succs(int(t))...)
	}
	return len(seen)
}

// poisonReplay runs the case on a real executing runtime with every task
// body gated until the full trace is admitted, injects one failure at
// failIdx, and returns the Failed/Skipped counters. Gating makes the
// counters deterministic: because no segment can drain before every task
// has joined it, the poisoned set is exactly the failed task's transitive
// descendants in the oracle graph, independent of worker timing.
func poisonReplay(ctx context.Context, c GoldenCase, maestro bool, failIdx int) (failed, skipped uint64, err error) {
	tr := workload.Collect(c.New(c.Seed))
	cfg := starss.Config{Workers: c.Workers, Window: len(tr.Tasks) + 1}
	newRuntime := starss.New
	if maestro {
		newRuntime = starss.NewMaestro
	}
	rt := newRuntime(cfg)
	gate := make(chan struct{})
	for i := range tr.Tasks {
		t := starss.TaskFromSpec(tr.Tasks[i], starss.ReplayOptions{ZeroCost: true})
		if i == failIdx {
			t.Do = func(ctx context.Context) error {
				<-gate
				return errGoldenPoison
			}
		} else {
			t.Do = func(ctx context.Context) error {
				<-gate
				return ctx.Err()
			}
		}
		if _, err := rt.Submit(ctx, t); err != nil {
			close(gate)
			rt.Close()
			return 0, 0, fmt.Errorf("submit task %d: %w", i, err)
		}
	}
	close(gate)
	if err := rt.Wait(ctx); err != nil && !errors.Is(err, errGoldenPoison) {
		rt.Close()
		return 0, 0, fmt.Errorf("wait: %w", err)
	}
	st := rt.Stats()
	if cerr := rt.Close(); cerr != nil && !errors.Is(cerr, errGoldenPoison) {
		return 0, 0, fmt.Errorf("close: %w", cerr)
	}
	return st.Failed, st.Skipped, nil
}

// Diff compares a committed golden (g) against a recomputed one and returns
// one human-readable line per divergent field — the readable Report diff the
// conformance gate prints. An empty slice means full conformance.
func (g *Golden) Diff(got *Golden) []string {
	var d []string
	line := func(format string, args ...any) { d = append(d, fmt.Sprintf(format, args...)) }
	if g.Case != got.Case || g.Workload != got.Workload || g.Workers != got.Workers || g.Seed != got.Seed {
		line("header: golden (%s %s workers=%d seed=%d) vs got (%s %s workers=%d seed=%d)",
			g.Case, g.Workload, g.Workers, g.Seed, got.Case, got.Workload, got.Workers, got.Seed)
	}
	o, p := g.Oracle, got.Oracle
	diffInt := func(name string, a, b int64) {
		if a != b {
			line("%s: golden %d, got %d", name, a, b)
		}
	}
	diffInt("oracle.tasks", int64(o.Tasks), int64(p.Tasks))
	diffInt("oracle.edges", int64(o.Edges), int64(p.Edges))
	diffInt("oracle.critical_path_ps", o.CriticalPathPs, p.CriticalPathPs)
	diffInt("oracle.total_work_ps", o.TotalWorkPs, p.TotalWorkPs)
	diffInt("oracle.max_width", int64(o.MaxWidth), int64(p.MaxWidth))
	diffInt("oracle.poison_index", int64(o.PoisonIndex), int64(p.PoisonIndex))
	diffInt("oracle.poison_skipped", int64(o.PoisonSkipped), int64(p.PoisonSkipped))
	byName := func(engines []GoldenEngine) map[string]GoldenEngine {
		m := make(map[string]GoldenEngine, len(engines))
		for _, e := range engines {
			m[e.Backend] = e
		}
		return m
	}
	want, have := byName(g.Engines), byName(got.Engines)
	for _, e := range g.Engines {
		h, ok := have[e.Backend]
		if !ok {
			line("engine %s: present in golden, missing from run", e.Backend)
			continue
		}
		pre := "engine " + e.Backend
		if e.Rejected != h.Rejected {
			line("%s.rejected: golden %q, got %q", pre, e.Rejected, h.Rejected)
			continue
		}
		if e.Simulated != h.Simulated {
			line("%s.simulated: golden %v, got %v", pre, e.Simulated, h.Simulated)
		}
		diffInt(pre+".tasks", int64(e.Tasks), int64(h.Tasks))
		diffInt(pre+".makespan_ps", e.MakespanPs, h.MakespanPs)
		if e.ScheduleOK != h.ScheduleOK {
			line("%s.schedule_ok: golden %v, got %v", pre, e.ScheduleOK, h.ScheduleOK)
		}
		diffInt(pre+".poison_failed", int64(e.PoisonFailed), int64(h.PoisonFailed))
		diffInt(pre+".poison_skipped", int64(e.PoisonSkipped), int64(h.PoisonSkipped))
	}
	for _, e := range got.Engines {
		if _, ok := want[e.Backend]; !ok {
			line("engine %s: present in run, missing from golden (regen needed for new engines)", e.Backend)
		}
	}
	return d
}

// GoldenPath returns the golden file path for a case name under dir.
func GoldenPath(dir, caseName string) string {
	return filepath.Join(dir, caseName+".json")
}

// ReadGolden loads one committed golden record.
func ReadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return &g, nil
}

// WriteGolden writes one golden record as stable, indented JSON.
func WriteGolden(path string, g *Golden) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
