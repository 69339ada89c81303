package main

import (
	"fmt"
	"time"

	"nexuspp/internal/core"
	"nexuspp/internal/depgraph"
	"nexuspp/internal/sim"
	"nexuspp/internal/softrts"
	iw "nexuspp/internal/workload"
)

// sim_gaussian times the paper artefact itself: the Nexus++ simulator on
// the Gaussian-elimination graph. n = 250 is Table II's smallest matrix
// (31 374 tasks, kick-off lists up to 249 deep); one core.Run takes a
// quarter of a second here, so a run holds some forty repeats — the larger
// Table II graphs would leave three.
const (
	gaussN       = 250
	gaussWorkers = 256
)

// simCounts are the simulated statistics that must repeat exactly: the
// simulator is deterministic, so any difference between two repeats is a
// bug, and a simulator-speed change must leave all of them as they were.
type simCounts struct {
	makespan sim.Time
	util     float64
	maxTP    int
	maxDT    int
	dtStalls uint64
	dummyTDs uint64
	events   uint64
}

func countsOf(r *core.Result) simCounts {
	return simCounts{r.Makespan, r.CoreUtilization, r.MaxTPOccupancy, r.MaxDTOccupancy, r.DTFullStalls, r.DummyTDs, r.Events}
}

type simInstance struct {
	e     env
	n     int
	genNS float64
	cfg   core.Config
	src   iw.Source
	// first holds the first repeat's counts; every later repeat must match.
	first  simCounts
	seen   bool
	repSeq uint64
	hostNS []float64 // per traced repeat: host ns per simulation event
}

func simWorkload() workload {
	return workload{def: workloadDefs[5], hostScaled: true, setup: func(e env) (instance, error) {
		n := gaussN
		if e.Quick {
			n = 40
		}
		start := time.Now()
		// The graph's shape is fixed by n; the seed moves the address
		// space, which the simulator hashes into its Dependence Table.
		src := iw.Gaussian(iw.GaussianConfig{N: n, BaseAddr: seedBase(0x4000_0000, e.Seed)})
		s := &simInstance{e: e, n: n, cfg: core.DefaultConfig(gaussWorkers), src: src}
		s.genNS = float64(time.Since(start).Nanoseconds()) / float64(src.Total())
		return s, nil
	}}
}

func (s *simInstance) tasksPerRepeat() int { return iw.GaussianTaskCount(s.n) }

func (s *simInstance) repeat(tr *tracer) (repResult, error) {
	s.repSeq++
	start := time.Now()
	id := tr.begin("core.run", noSpan, s.repSeq, 0)
	res, err := core.Run(s.cfg, s.src)
	tr.end(id)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, fmt.Errorf("core.Run: %w", err)
	}
	if want := uint64(iw.GaussianTaskCount(s.n)); res.TasksExecuted != want {
		return repResult{}, fmt.Errorf("core.Run executed %d of %d tasks", res.TasksExecuted, want)
	}
	got := countsOf(res)
	if !s.seen {
		s.first, s.seen = got, true
	} else if got != s.first {
		return repResult{}, fmt.Errorf("simulated statistics changed between repeats: %+v then %+v", s.first, got)
	}
	if tr != nil {
		s.hostNS = append(s.hostNS, float64(wall.Nanoseconds())/float64(res.Events))
	}
	return repResult{Tasks: int(res.TasksExecuted), Wall: wall, OpLatUS: []float64{float64(wall.Nanoseconds()) / 1e3}}, nil
}

func (s *simInstance) endRepeat() error { return nil }

// verify runs the simulator once more with schedule recording on and
// checks the simulated schedule against the dependency-graph oracle.
func (s *simInstance) verify() error {
	cfg := s.cfg
	cfg.RecordSchedule = true
	src := iw.Gaussian(iw.GaussianConfig{N: 40, BaseAddr: seedBase(0x4000_0000, s.e.Seed)})
	res, err := core.Run(cfg, src)
	if err != nil {
		return fmt.Errorf("sim_gaussian: verification run: %w", err)
	}
	if err := depgraph.Build(src).ValidateSchedule(res.Schedule); err != nil {
		return fmt.Errorf("sim_gaussian: simulated schedule breaks the dependency oracle: %w", err)
	}
	return nil
}

func (s *simInstance) close() error { return nil }

func (s *simInstance) layers(tr *tracer, untraced, traced *phase) (map[string]float64, error) {
	m := map[string]float64{
		"workload.gen_ns_per_task": s.genNS,
		"core.makespan_ns":         s.first.makespan.Nanoseconds(),
		"core.core_utilization":    s.first.util,
		"core.max_tp_occupancy":    float64(s.first.maxTP),
		"core.max_dt_occupancy":    float64(s.first.maxDT),
		"core.dt_full_stalls":      float64(s.first.dtStalls),
		"core.dummy_tds":           float64(s.first.dummyTDs),
		"core.host_ns_per_event":   median(s.hostNS),
	}
	tasks := float64(s.src.Total())

	// The software-RTS model on the same graph: the baseline the paper's
	// speedups are quoted against.
	start := time.Now()
	id := tr.begin("softrts.run", noSpan, 0, 0)
	soft, err := softrts.Run(softrts.DefaultConfig(gaussWorkers), s.src)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("softrts.Run: %w", err)
	}
	m["softrts.host_ns_per_task"] = float64(time.Since(start).Nanoseconds()) / tasks
	m["softrts.makespan_ns"] = soft.Makespan.Nanoseconds()
	m["core.speedup_vs_softrts"] = float64(soft.Makespan) / float64(s.first.makespan)

	start = time.Now()
	id = tr.begin("depgraph.build", noSpan, 0, 0)
	g := depgraph.Build(s.src)
	tr.end(id)
	if g.NumTasks() != s.src.Total() {
		return nil, fmt.Errorf("depgraph.Build: %d tasks of %d", g.NumTasks(), s.src.Total())
	}
	m["depgraph.build_ns_per_task"] = float64(time.Since(start).Nanoseconds()) / tasks

	m["sim.engine_ns_per_event"] = engineProbe(s.e)
	return m, nil
}

// engineProbe times the bare event engine: one event that reschedules
// itself, so the cost is heap push + pop + dispatch and nothing else.
func engineProbe(e env) float64 {
	n := 2_000_000
	if e.Quick {
		n = 20_000
	}
	eng := sim.NewEngine()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.After(sim.Nanosecond, tick)
		}
	}
	eng.After(0, tick)
	start := time.Now()
	eng.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(eng.Processed())
}
