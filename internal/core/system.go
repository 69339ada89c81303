package core

import (
	"fmt"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/mem"
	"nexuspp/internal/sim"
	"nexuspp/internal/workload"
)

// System wires a complete Nexus++ multicore: one master core, the Task
// Maestro, one Task Controller per worker core, the on-chip bus and the
// off-chip memory, all driven by a single deterministic event engine.
type System struct {
	cfg     Config
	eng     *sim.Engine
	memory  *mem.Memory
	bus     *mem.Bus
	maestro *Maestro
	tcs     []*TaskController
	master  *MasterCore

	// Per-task schedule recording (optional).
	record   bool
	fetchAt  map[int32]sim.Time  // task-pool index -> fetch start
	schedule []depgraph.Interval // by trace task ID
	execIv   []depgraph.Interval // by trace task ID (pure execution)
}

// Result reports the outcome and the key observables of one simulation.
type Result struct {
	Workload string
	Workers  int
	Config   Config

	// Makespan is the simulated time at which the last event fired.
	Makespan sim.Time
	// TasksExecuted counts tasks that completed the full lifecycle.
	TasksExecuted uint64

	// CoreUtilization is total execution time divided by workers*makespan.
	CoreUtilization float64
	// MasterStall is the time the master spent blocked on a full TDs list.
	MasterStall sim.Time

	// Structure statistics.
	DummyTDs        uint64 // dummy task descriptors chained in the Task Pool
	DummyDTSegments uint64 // dummy kick-off segments chained in the Dependence Table
	MaxTPOccupancy  int
	MaxDTOccupancy  int
	MaxDTChain      int // longest hash-collision chain
	MaxKOSegments   int // longest kick-off chain in segments
	DTFullStalls    uint64

	// Memory statistics.
	MemHighWater int
	MemWaits     uint64

	// Block busy fractions of the makespan.
	BlockUtil map[string]float64

	// Events is the number of simulation events processed.
	Events uint64

	// Schedule and ExecIntervals are per-task (by trace ID) when
	// Config.RecordSchedule is set: Schedule spans input fetch to output
	// commit (the span the dependency oracle validates), ExecIntervals the
	// pure execution phase.
	Schedule      []depgraph.Interval
	ExecIntervals []depgraph.Interval
}

// NewSystem builds a system for cfg. The source is attached by Run.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	s := &System{
		cfg:    cfg,
		eng:    eng,
		memory: mem.NewMemory(eng, cfg.Mem),
		bus:    mem.NewBus(eng, cfg.Bus),
	}
	s.maestro = newMaestro(eng, &s.cfg)
	s.tcs = make([]*TaskController, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		s.tcs[i] = newTaskController(eng, s, i, cfg.BufferingDepth)
	}
	s.maestro.attachControllers(s.tcs)
	return s, nil
}

// Run simulates src to completion and returns the results. It returns an
// error if the system deadlocks (events drain with unfinished tasks), which
// would indicate a model bug or an impossible configuration.
func Run(cfg Config, src workload.Source) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.run(src)
}

// drive runs the event loop, converting FatalModelError panics (hard
// structure limits in original-Nexus mode) into plain errors.
func (s *System) drive() (makespan sim.Time, err error) {
	defer func() {
		if r := recover(); r != nil {
			if fe, ok := r.(FatalModelError); ok {
				err = fe
				return
			}
			panic(r)
		}
	}()
	return s.eng.Run(), nil
}

func (s *System) run(src workload.Source) (*Result, error) {
	src.Reset()
	total := src.Total()
	s.record = s.cfg.RecordSchedule
	if s.record {
		s.fetchAt = make(map[int32]sim.Time, s.cfg.TaskPoolEntries)
		s.schedule = make([]depgraph.Interval, total)
		s.execIv = make([]depgraph.Interval, total)
	}
	s.master = newMasterCore(s.eng, s, src)
	// Un-stall the master when the TDs Sizes list drains.
	s.maestro.tdsSizes.OnSpace(s.master.trySubmit)
	s.master.start()
	makespan, err := s.drive()
	if err != nil {
		return nil, err
	}

	if s.maestro.tasksFinished != uint64(total) {
		return nil, fmt.Errorf("core: deadlock: %d of %d tasks finished (stored %d, checked %d, sent %d; TP free %d, DT used %d)",
			s.maestro.tasksFinished, total, s.maestro.tasksStored, s.maestro.tasksChecked,
			s.maestro.tasksSent, s.maestro.tp.FreeCount(), s.maestro.dt.Used())
	}
	if err := s.maestro.dt.checkInvariants(); err != nil {
		return nil, err
	}
	if live := s.maestro.dt.Live(); live != 0 {
		return nil, fmt.Errorf("core: %d Dependence Table entries leaked", live)
	}
	if occ := s.maestro.tp.Occupancy(); occ != 0 {
		return nil, fmt.Errorf("core: %d Task Pool descriptors leaked", occ)
	}

	var execTotal sim.Time
	for _, tc := range s.tcs {
		execTotal += tc.ExecBusy()
	}
	util := 0.0
	if makespan > 0 {
		util = float64(execTotal) / (float64(makespan) * float64(s.cfg.Workers))
	}
	res := &Result{
		Workload:        src.Name(),
		Workers:         s.cfg.Workers,
		Config:          s.cfg,
		Makespan:        makespan,
		TasksExecuted:   s.maestro.tasksFinished,
		CoreUtilization: util,
		MasterStall:     s.master.StallTime(),
		DummyTDs:        s.maestro.tp.DummyTDs(),
		DummyDTSegments: s.maestro.dt.DummySegments(),
		MaxTPOccupancy:  s.maestro.tp.MaxOccupancy(),
		MaxDTOccupancy:  s.maestro.dt.MaxOccupancy(),
		MaxDTChain:      s.maestro.dt.MaxChain(),
		MaxKOSegments:   s.maestro.dt.MaxKOSegments(),
		DTFullStalls:    s.maestro.dt.FullStalls(),
		MemHighWater:    s.memory.HighWater(),
		MemWaits:        s.memory.Waits(),
		Events:          s.eng.Processed(),
	}
	if makespan > 0 {
		res.BlockUtil = map[string]float64{
			"write-tp":        s.maestro.writeTP.Utilization(makespan),
			"check-deps":      s.maestro.checkDeps.Utilization(makespan),
			"schedule":        s.maestro.schedule.Utilization(makespan),
			"send-tds":        s.maestro.sendTDs.Utilization(makespan),
			"handle-finished": s.maestro.handleFin.Utilization(makespan),
		}
	}
	if s.record {
		res.Schedule = s.schedule
		res.ExecIntervals = s.execIv
	}
	return res, nil
}

// markFetchStart records the beginning of a task's Get Inputs phase.
func (s *System) markFetchStart(task int32) {
	if !s.record {
		return
	}
	s.fetchAt[task] = s.eng.Now()
}

// markExecStart records the beginning of a task's Run phase.
func (s *System) markExecStart(task int32) {
	if !s.record {
		return
	}
	id := s.maestro.tp.Spec(task).ID
	s.execIv[id].Start = s.eng.Now()
}

// markExecEnd records the end of a task's Run phase.
func (s *System) markExecEnd(task int32) {
	if !s.record {
		return
	}
	id := s.maestro.tp.Spec(task).ID
	s.execIv[id].End = s.eng.Now()
}

// markCommit records the end of a task's Put Outputs phase, closing the
// interval the dependency oracle validates.
func (s *System) markCommit(task int32) {
	if !s.record {
		return
	}
	id := s.maestro.tp.Spec(task).ID
	s.schedule[id] = depgraph.Interval{Start: s.fetchAt[task], End: s.eng.Now()}
	delete(s.fetchAt, task)
}
