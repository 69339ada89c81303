package core

import (
	"nexuspp/internal/sim"
)

// TaskController is the small per-worker-core unit of SSIII-A: it buffers
// tasks ahead of execution and pipelines the four stages Get TD (performed
// by the Maestro's Send TDs block delivering into recvQ), Get Inputs,
// Run Task and Put Outputs. With BufferingDepth >= 2 the input prefetch of
// one task overlaps the execution of the previous one — the paper's double
// buffering. Each stage owns one unit (a DMA engine for the memory stages,
// the core itself for Run Task) that serves one task at a time; tasks flow
// through the stages in arrival order, so completions reach the Maestro in
// the same order Send TDs recorded them in the CiFinTasks list.
type TaskController struct {
	core   int
	eng    *sim.Engine
	sys    *System
	recvQ  *sim.FIFO[int32] // tasks delivered, waiting for Get Inputs
	runQ   *sim.FIFO[int32] // inputs fetched, waiting for the core
	writeQ *sim.FIFO[int32] // executed, waiting for Put Outputs

	// Each stage keeps the task it is serving in its own register; the
	// completion callbacks are bound once per controller.
	getInBusy  bool
	getInTask  int32
	getInStart sim.Time
	getInDone  func()
	runBusy    bool
	runTask    int32
	runExec    sim.Time
	runDone    func()
	putOutBusy bool
	putOutTask int32
	putOutDone func()

	tasksRun    uint64
	execBusy    sim.Time
	memReadBusy sim.Time
}

func newTaskController(eng *sim.Engine, sys *System, core int, depth int) *TaskController {
	tc := &TaskController{
		core:   core,
		eng:    eng,
		sys:    sys,
		recvQ:  sim.NewFIFO[int32]("tc-recv", depth),
		runQ:   sim.NewFIFO[int32]("tc-run", depth),
		writeQ: sim.NewFIFO[int32]("tc-write", depth),
	}
	tc.getInDone = tc.finishGetInputs
	tc.runDone = tc.finishRun
	tc.putOutDone = tc.finishPutOutputs
	tc.recvQ.OnData(tc.kickGetInputs)
	tc.runQ.OnData(tc.kickRun)
	tc.runQ.OnSpace(tc.kickGetInputs)
	tc.writeQ.OnData(tc.kickPutOutputs)
	tc.writeQ.OnSpace(tc.kickRun)
	return tc
}

// canReceive reports whether the controller can buffer another descriptor.
// The Worker Cores IDs token scheme guarantees it can whenever the Maestro
// schedules here, but Send TDs checks anyway (the paper's request line).
func (tc *TaskController) canReceive() bool { return !tc.recvQ.Full() }

// receive accepts a descriptor from the Send TDs block.
func (tc *TaskController) receive(task int32) { tc.recvQ.MustPush(task) }

// ExecBusy returns the core's cumulative execution time.
func (tc *TaskController) ExecBusy() sim.Time { return tc.execBusy }

// TasksRun returns the number of tasks this core executed.
func (tc *TaskController) TasksRun() uint64 { return tc.tasksRun }

// Get Inputs: prefetch the task's code and inputs from off-chip memory.
// The stage's DMA engine is held for the full access, including any time
// spent queueing for a free memory port.
func (tc *TaskController) kickGetInputs() {
	if tc.getInBusy || tc.runQ.Full() {
		return
	}
	task, ok := tc.recvQ.Pop()
	if !ok {
		return
	}
	tc.getInBusy = true
	tc.sys.maestro.kickSendTDs() // a receive-buffer slot opened up
	spec := tc.sys.maestro.tp.Spec(task)
	tc.sys.markFetchStart(task)
	tc.getInTask, tc.getInStart = task, tc.eng.Now()
	tc.sys.memory.Access(spec.MemRead, tc.getInDone)
}

func (tc *TaskController) finishGetInputs() {
	tc.memReadBusy += tc.eng.Now() - tc.getInStart
	tc.getInBusy = false
	tc.runQ.MustPush(tc.getInTask)
	tc.kickGetInputs()
}

// Run Task: pass the task to the worker core.
func (tc *TaskController) kickRun() {
	if tc.runBusy || tc.writeQ.Full() {
		return
	}
	task, ok := tc.runQ.Pop()
	if !ok {
		return
	}
	tc.runBusy = true
	spec := tc.sys.maestro.tp.Spec(task)
	tc.sys.markExecStart(task)
	tc.runTask, tc.runExec = task, spec.Exec
	tc.eng.After(spec.Exec, tc.runDone)
}

func (tc *TaskController) finishRun() {
	tc.tasksRun++
	tc.execBusy += tc.runExec
	tc.runBusy = false
	tc.sys.markExecEnd(tc.runTask)
	tc.writeQ.MustPush(tc.runTask)
	tc.kickRun()
}

// Put Outputs: write results back to off-chip memory, then notify the
// Maestro with the 1-bit task-finished signal.
func (tc *TaskController) kickPutOutputs() {
	if tc.putOutBusy {
		return
	}
	task, ok := tc.writeQ.Pop()
	if !ok {
		return
	}
	tc.putOutBusy = true
	tc.putOutTask = task
	tc.sys.memory.Access(tc.sys.maestro.tp.Spec(task).MemWrite, tc.putOutDone)
}

func (tc *TaskController) finishPutOutputs() {
	tc.putOutBusy = false
	tc.sys.markCommit(tc.putOutTask)
	tc.sys.maestro.taskFinished(tc.core)
	tc.kickPutOutputs()
}
