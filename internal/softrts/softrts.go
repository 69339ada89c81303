// Package softrts models the software StarSs runtime system that motivates
// hardware task management: the master core builds the task graph and
// attends to finished tasks in software, and previous work (the Nexus paper
// the Nexus++ paper builds on) showed it "cannot compute task dependencies
// and attend to finished tasks fast enough to keep all worker cores busy".
//
// The model charges a per-task software cost for adding a task to the graph
// and another for retiring it, both executed serially on the master core.
// Workers have no Task Controllers: each task's input fetch, execution and
// write-back are serial. Dependency semantics are identical to the hardware
// model (readers share, writers wait, WAR/WAW enforced without renaming),
// so the same workloads run unchanged.
package softrts

import (
	"fmt"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/mem"
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// Config parameterises the software runtime model.
type Config struct {
	// Workers is the number of worker cores.
	Workers int
	// AddTaskCost is the master-side software cost of creating a task and
	// inserting it into the dependency graph (hashing every parameter,
	// allocating nodes). Defaults to 3us, calibrated so that an H.264-like
	// workload saturates around 4 cores as reported for the software RTS.
	AddTaskCost sim.Time
	// FinishCost is the master-side software cost of retiring a finished
	// task and waking its dependents. Defaults to 2.2us.
	FinishCost sim.Time
	// Mem configures the off-chip memory model.
	Mem mem.MemConfig
	// RecordSchedule keeps per-task intervals for oracle validation.
	RecordSchedule bool
}

// DefaultConfig returns the calibrated software-runtime configuration.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:     workers,
		AddTaskCost: 3 * sim.Microsecond,
		FinishCost:  2200 * sim.Nanosecond,
		Mem:         mem.DefaultMemConfig(),
	}
}

// Result reports a software-runtime simulation.
type Result struct {
	Workload      string
	Workers       int
	Makespan      sim.Time
	TasksExecuted uint64
	// MasterUtilization is the fraction of the makespan the master core
	// spent in runtime code — near 1.0 means the RTS is the bottleneck.
	MasterUtilization float64
	CoreUtilization   float64
	Schedule          []depgraph.Interval
}

// runtime state per memory segment, same semantics as the hardware
// Dependence Table but without capacity limits (software tables grow).
type segState struct {
	isOut bool
	rdrs  int
	ww    bool
	ko    []waiter
}

type waiter struct {
	task       int32
	wantsWrite bool
}

type taskState struct {
	spec trace.TaskSpec
	dc   int
}

type simulator struct {
	cfg    Config
	eng    *sim.Engine
	memory *mem.Memory
	src    workload.Source

	segs  map[uint64]*segState
	tasks map[int32]*taskState

	masterBusy    bool
	finishQ       *sim.FIFO[int32]
	readyQ        *sim.FIFO[int32]
	idleWorkers   *sim.FIFO[int]
	pendingSubmit bool

	nextID     int32
	finished   uint64
	total      int
	masterWork sim.Time
	execWork   sim.Time

	record   bool
	schedule []depgraph.Interval
	startAt  map[int32]sim.Time
}

// Run simulates src on the software runtime.
func Run(cfg Config, src workload.Source) (*Result, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("softrts: Workers = %d", cfg.Workers)
	}
	if cfg.AddTaskCost == 0 && cfg.FinishCost == 0 {
		def := DefaultConfig(cfg.Workers)
		cfg.AddTaskCost, cfg.FinishCost = def.AddTaskCost, def.FinishCost
	}
	src.Reset()
	eng := sim.NewEngine()
	// A task sits in each software queue at most once, so the task count
	// bounds both; the cap keeps paper-scale graphs from pre-allocating
	// rings far deeper than the queues ever run.
	queueCap := min(max(src.Total(), 1), 1<<20)
	s := &simulator{
		cfg:           cfg,
		eng:           eng,
		memory:        mem.NewMemory(eng, cfg.Mem),
		src:           src,
		segs:          make(map[uint64]*segState),
		tasks:         make(map[int32]*taskState),
		finishQ:       sim.NewFIFO[int32]("sw-finish", queueCap),
		readyQ:        sim.NewFIFO[int32]("sw-ready", queueCap),
		idleWorkers:   sim.NewFIFO[int]("sw-idle", cfg.Workers),
		total:         src.Total(),
		record:        cfg.RecordSchedule,
		pendingSubmit: true,
	}
	for i := 0; i < cfg.Workers; i++ {
		s.idleWorkers.MustPush(i)
	}
	if s.record {
		s.schedule = make([]depgraph.Interval, s.total)
		s.startAt = make(map[int32]sim.Time)
	}
	s.readyQ.OnData(s.dispatch)
	s.idleWorkers.OnData(s.dispatch)
	s.finishQ.OnData(s.kickMaster)
	eng.After(0, s.kickMaster)
	makespan := eng.Run()
	if s.finished != uint64(s.total) {
		return nil, fmt.Errorf("softrts: deadlock: %d of %d tasks finished", s.finished, s.total)
	}
	if len(s.segs) != 0 {
		return nil, fmt.Errorf("softrts: %d segment states leaked", len(s.segs))
	}
	res := &Result{
		Workload:      src.Name(),
		Workers:       cfg.Workers,
		Makespan:      makespan,
		TasksExecuted: s.finished,
	}
	if makespan > 0 {
		res.MasterUtilization = float64(s.masterWork) / float64(makespan)
		res.CoreUtilization = float64(s.execWork) / (float64(makespan) * float64(cfg.Workers))
	}
	if s.record {
		res.Schedule = s.schedule
	}
	return res, nil
}

// kickMaster runs the master core's runtime loop: retire finished tasks
// first, then add new ones.
func (s *simulator) kickMaster() {
	if s.masterBusy {
		return
	}
	if task, ok := s.finishQ.Pop(); ok {
		s.masterBusy = true
		s.masterWork += s.cfg.FinishCost
		s.eng.After(s.cfg.FinishCost, func() {
			s.retire(task)
			s.masterBusy = false
			s.kickMaster()
		})
		return
	}
	if !s.pendingSubmit {
		return
	}
	spec, ok := s.src.Next()
	if !ok {
		s.pendingSubmit = false
		return
	}
	s.masterBusy = true
	s.masterWork += s.cfg.AddTaskCost
	s.eng.After(s.cfg.AddTaskCost, func() {
		s.addTask(spec)
		s.masterBusy = false
		s.kickMaster()
	})
}

// addTask inserts a task into the graph (Listing 2 semantics).
func (s *simulator) addTask(spec trace.TaskSpec) {
	id := s.nextID
	s.nextID++
	st := &taskState{spec: spec}
	s.tasks[id] = st
	for _, p := range spec.Params {
		seg := s.segs[p.Addr]
		if seg == nil {
			seg = &segState{}
			s.segs[p.Addr] = seg
			if p.Mode.Writes() {
				seg.isOut = true
			} else {
				seg.rdrs = 1
			}
			continue
		}
		if !p.Mode.Writes() {
			if !seg.isOut && !seg.ww {
				seg.rdrs++
			} else {
				seg.ko = append(seg.ko, waiter{task: id})
				st.dc++
			}
			continue
		}
		seg.ko = append(seg.ko, waiter{task: id, wantsWrite: true})
		st.dc++
		if !seg.isOut {
			seg.ww = true
		}
	}
	if st.dc == 0 {
		s.readyQ.MustPush(id)
	}
}

// retire removes a finished task from the graph and wakes dependents.
func (s *simulator) retire(task int32) {
	st := s.tasks[task]
	for _, p := range st.spec.Params {
		seg := s.segs[p.Addr]
		if seg == nil {
			panic(fmt.Sprintf("softrts: finished task %d references unknown segment %#x", task, p.Addr))
		}
		var grants []int32
		if !p.Mode.Writes() {
			seg.rdrs--
			if seg.rdrs > 0 {
				continue
			}
			if !seg.ww {
				delete(s.segs, p.Addr)
				continue
			}
			w := seg.ko[0]
			seg.ko = seg.ko[1:]
			seg.isOut = true
			seg.ww = false
			grants = append(grants, w.task)
		} else {
			seg.isOut = false
			if len(seg.ko) == 0 {
				delete(s.segs, p.Addr)
				continue
			}
			if seg.ko[0].wantsWrite {
				w := seg.ko[0]
				seg.ko = seg.ko[1:]
				seg.isOut = true
				grants = append(grants, w.task)
			} else {
				for len(seg.ko) > 0 && !seg.ko[0].wantsWrite {
					w := seg.ko[0]
					seg.ko = seg.ko[1:]
					seg.rdrs++
					grants = append(grants, w.task)
				}
				if len(seg.ko) > 0 {
					seg.ww = true
				}
			}
		}
		for _, g := range grants {
			gst := s.tasks[g]
			gst.dc--
			if gst.dc == 0 {
				s.readyQ.MustPush(g)
			}
		}
	}
	delete(s.tasks, task)
	s.finished++
}

// dispatch hands ready tasks to idle workers.
func (s *simulator) dispatch() {
	for !s.readyQ.Empty() && !s.idleWorkers.Empty() {
		task, _ := s.readyQ.Pop()
		worker, _ := s.idleWorkers.Pop()
		s.runOn(worker, task)
	}
}

// runOn executes the task on a worker: serial fetch, execute, write back
// (no Task Controller, hence no overlap within the core).
func (s *simulator) runOn(worker int, task int32) {
	st := s.tasks[task]
	if s.record {
		s.startAt[task] = s.eng.Now()
	}
	s.memory.Access(st.spec.MemRead, func() {
		s.eng.After(st.spec.Exec, func() {
			s.execWork += st.spec.Exec
			s.memory.Access(st.spec.MemWrite, func() {
				if s.record {
					id := st.spec.ID
					s.schedule[id] = depgraph.Interval{Start: s.startAt[task], End: s.eng.Now()}
					delete(s.startAt, task)
				}
				s.finishQ.MustPush(task)
				s.idleWorkers.MustPush(worker)
			})
		})
	})
}
