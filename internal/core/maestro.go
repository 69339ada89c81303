package core

import (
	"fmt"
	"math/bits"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
)

// Maestro is the Task Maestro: the central Nexus++ module responsible for
// dependency resolution, task scheduling and load balancing. Its hardware
// blocks are modeled as single-item servers wired by the FIFO lists of the
// paper's Figure 2; every block is triggered by writes to its input FIFO
// (the paper's 1-bit events) and re-kicks itself after each service.
type Maestro struct {
	eng *sim.Engine
	cfg *Config
	tp  *TaskPool
	dt  *DepTable

	// FIFO lists (paper Table IV).
	tdsSizes    *sim.FIFO[int]
	tdsBuffer   *sim.FIFO[trace.TaskSpec]
	newTasks    *sim.FIFO[int32]
	globalReady *sim.FIFO[int32]
	workerIDs   *sim.FIFO[int]
	rdyTasks    []*sim.FIFO[int32]
	finTasks    []*sim.FIFO[int32]
	finishNotif *sim.FIFO[int]

	// Blocks.
	writeTP   *sim.Server
	checkDeps *sim.Server
	schedule  *sim.Server
	sendTDs   *sim.Server
	handleFin *sim.Server

	// Each block serves one item at a time and keeps it, between Start and
	// the completion handler, in the registers below — never in a closure.

	// Write TP: the descriptor taken off the TDs Buffer and the Task Pool
	// index it was stored at.
	wtpSpec trace.TaskSpec
	wtpID   int32

	// Check Deps: the task being checked and the next parameter index
	// (preserved across full-table stalls).
	cdTask    int32
	cdParam   int
	cdStalled bool // the service in flight ended on a full Dependence Table
	cdWaiting bool // parked on a full Dependence Table

	// Schedule: the task and the core token it was paired with.
	schTask int32
	schCore int

	// Send TDs: the task in flight and its destination; rrPtr is the
	// round-robin fairness pointer and rdySet indexes the cores whose
	// CiRdyTasks list is non-empty, so the request selection does not scan
	// every list.
	stdTask    int32
	stdCore    int
	rrPtr      int
	rdySet     coreSet
	canReceive func(core int) bool

	// Handle Finished: the retiring task, its core, and the waiters its
	// kick-off lists released (buffer reused across tasks).
	hfTask  int32
	hfCore  int
	hfReady []int32

	// Optional single-ported table modeling (Config.TablePorts): blocks
	// hold the ports of the tables they touch for their whole service. A
	// pending flag marks a block queued for its ports.
	wtpPorts, cdPorts, stdPorts, hfPorts tablePorts
	wtpPending                           bool
	cdPending                            bool
	stdPending                           bool
	hfPending                            bool

	// Destination Task Controllers, one per worker core.
	tcs []*TaskController

	// Statistics.
	tasksStored   uint64
	tasksChecked  uint64
	tasksSent     uint64
	tasksFinished uint64
	readyAtCheck  uint64 // tasks ready immediately after dependency check
}

func newMaestro(eng *sim.Engine, cfg *Config) *Maestro {
	m := &Maestro{
		eng:    eng,
		cfg:    cfg,
		tp:     NewTaskPool(cfg.TaskPoolEntries, cfg.MaxParamsPerTD),
		dt:     NewDepTable(cfg.DepTableEntries, cfg.KickOffSlots),
		cdTask: -1,
	}
	m.dt.strictKO = cfg.HardKickOffLimit
	m.dt.renaming = cfg.RenameFalseDeps
	var tpPort, dtPort *sim.Resource
	if cfg.TablePorts > 0 {
		tpPort = sim.NewResource("task-pool-ports", cfg.TablePorts)
		dtPort = sim.NewResource("dep-table-ports", cfg.TablePorts)
	}
	m.wtpPorts = newTablePorts(tpPort, nil, m.startWriteTP)
	m.cdPorts = newTablePorts(tpPort, dtPort, m.startCheckDeps)
	m.stdPorts = newTablePorts(tpPort, nil, m.startSendTDs)
	m.hfPorts = newTablePorts(tpPort, dtPort, m.startHandleFinished)
	// Invariant-safe capacities: every ID in New Tasks or Global Ready
	// belongs to a live Task Pool entry, so sizing both lists at the pool
	// capacity makes overflow impossible (Table IV sizes them identically
	// for the default 1K pool).
	m.tdsSizes = sim.NewFIFO[int]("tds-sizes", cfg.TDsListEntries)
	m.tdsBuffer = sim.NewFIFO[trace.TaskSpec]("tds-buffer", cfg.TDsListEntries)
	m.newTasks = sim.NewFIFO[int32]("new-tasks", cfg.TaskPoolEntries)
	m.globalReady = sim.NewFIFO[int32]("global-ready", cfg.TaskPoolEntries)
	tokens := cfg.Workers * cfg.BufferingDepth
	m.workerIDs = sim.NewFIFO[int]("worker-ids", tokens)
	m.finishNotif = sim.NewFIFO[int]("finish-notif", tokens)
	m.rdySet = newCoreSet(cfg.Workers)
	m.canReceive = func(core int) bool { return m.tcs[core].canReceive() }
	m.rdyTasks = make([]*sim.FIFO[int32], cfg.Workers)
	m.finTasks = make([]*sim.FIFO[int32], cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		m.rdyTasks[i] = sim.NewFIFO[int32]("rdy-tasks", cfg.BufferingDepth)
		m.finTasks[i] = sim.NewFIFO[int32]("fin-tasks", cfg.BufferingDepth)
		// The Worker Cores IDs list initially holds every core ID repeated
		// "buffering depth" times (paper SSIII-A).
		for b := 0; b < cfg.BufferingDepth; b++ {
			m.workerIDs.MustPush(i)
		}
	}
	m.writeTP = sim.NewServer(eng, "write-tp", m.writeTPDone)
	m.checkDeps = sim.NewServer(eng, "check-deps", m.checkDepsDone)
	m.schedule = sim.NewServer(eng, "schedule", m.scheduleDone)
	m.sendTDs = sim.NewServer(eng, "send-tds", m.sendTDsDone)
	m.handleFin = sim.NewServer(eng, "handle-finished", m.handleFinishedDone)

	// Event wiring: FIFO writes are the 1-bit triggers of Figure 2.
	m.tdsSizes.OnData(m.kickWriteTP)
	m.tp.OnFree(m.kickWriteTP)
	m.newTasks.OnData(m.kickCheckDeps)
	m.dt.OnFree(m.kickCheckDeps)
	m.globalReady.OnData(m.kickSchedule)
	m.workerIDs.OnData(m.kickSchedule)
	m.finishNotif.OnData(m.kickHandleFinished)
	return m
}

func (m *Maestro) attachControllers(tcs []*TaskController) {
	m.tcs = tcs
	for i := range m.rdyTasks {
		m.rdyTasks[i].OnData(m.kickSendTDs)
	}
}

// submitDelivered is called by the Get TDs block when the bus finishes
// delivering a descriptor from the master core. The master guarantees space
// before submitting (it stalls while the TDs Sizes list is full).
func (m *Maestro) submitDelivered(spec trace.TaskSpec) {
	m.tdsBuffer.MustPush(spec)
	m.tdsSizes.MustPush(spec.NumParams())
}

// canAcceptSubmission reports whether the TDs Sizes list has room; when it
// is full "the Master Core stalls and stops sending new Task Descriptors".
func (m *Maestro) canAcceptSubmission() bool { return !m.tdsSizes.Full() }

// tablePorts is one block's claim on the table ports it needs for a
// service: the Task Pool port, then (for the two blocks that also touch it)
// the Dependence Table port — that fixed order makes the two-port holders
// deadlock-free. With unlimited ports (Config.TablePorts == 0) both
// resources are nil and acquire is a direct call of start.
type tablePorts struct {
	tp, dt *sim.Resource
	start  func() // the block's service, run once every port is held
	gotTP  func() // the Task Pool port's grant callback, bound once
}

func newTablePorts(tp, dt *sim.Resource, start func()) tablePorts {
	p := tablePorts{tp: tp, dt: dt, start: start, gotTP: start}
	if dt != nil {
		p.gotTP = func() { dt.Acquire(start) }
	}
	return p
}

// acquire runs start as soon as the ports are held — synchronously when
// they are free or unlimited.
func (p *tablePorts) acquire() {
	if p.tp == nil {
		p.start()
		return
	}
	p.tp.Acquire(p.gotTP)
}

// release frees the ports in reverse acquisition order.
func (p *tablePorts) release() {
	if p.dt != nil {
		p.dt.Release()
	}
	if p.tp != nil {
		p.tp.Release()
	}
}

// coreSet is a bitset over worker-core indices.
type coreSet []uint64

func newCoreSet(cores int) coreSet { return make(coreSet, (cores+63)/64) }

func (s coreSet) add(core int)    { s[core>>6] |= 1 << (core & 63) }
func (s coreSet) remove(core int) { s[core>>6] &^= 1 << (core & 63) }

// next returns the smallest member >= from, or -1.
func (s coreSet) next(from int) int {
	w := from >> 6
	if w >= len(s) {
		return -1
	}
	if rest := s[w] >> (from & 63); rest != 0 {
		return from + bits.TrailingZeros64(rest)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// pickFrom returns the first member at or after start, wrapping around to
// the members below it, that ok accepts — the member a linear round-robin
// scan from start would stop at — or -1.
func (s coreSet) pickFrom(start int, ok func(core int) bool) int {
	for c := s.next(start); c >= 0; c = s.next(c + 1) {
		if ok(c) {
			return c
		}
	}
	for c := s.next(0); c >= 0 && c < start; c = s.next(c + 1) {
		if ok(c) {
			return c
		}
	}
	return -1
}

// --- Write TP block -------------------------------------------------------

func (m *Maestro) kickWriteTP() {
	if m.writeTP.Busy() || m.wtpPending {
		return
	}
	size, ok := m.tdsSizes.Peek()
	if !ok {
		return
	}
	spec, _ := m.tdsBuffer.Peek()
	if m.cfg.HardParamLimit && size > m.cfg.MaxParamsPerTD {
		panic(FatalModelError{Reason: fmt.Sprintf(
			"task %d has %d parameters, exceeding the fixed per-descriptor limit of %d with dummy tasks disabled (original-Nexus limit)",
			spec.ID, size, m.cfg.MaxParamsPerTD)})
	}
	need := NumTDs(size, m.cfg.MaxParamsPerTD)
	if m.tp.FreeCount() < need {
		return // retried via tp.OnFree
	}
	m.tdsSizes.Pop()
	m.tdsBuffer.Pop()
	m.wtpSpec = spec
	m.wtpPending = true
	m.wtpPorts.acquire()
}

func (m *Maestro) startWriteTP() {
	m.wtpPending = false
	id, ok := m.tp.Alloc(m.wtpSpec)
	if !ok {
		panic("core: Task Pool allocation failed after free-count check")
	}
	m.wtpID = id
	need := m.tp.NeededTDs(&m.wtpSpec)
	m.writeTP.Start(m.cfg.cycles(m.cfg.Costs.WriteTPBase + m.cfg.Costs.WriteTPPerTD*need))
}

func (m *Maestro) writeTPDone() {
	m.wtpPorts.release()
	m.tasksStored++
	m.newTasks.MustPush(m.wtpID)
	m.kickWriteTP()
}

// --- Check Deps block ------------------------------------------------------

func (m *Maestro) kickCheckDeps() {
	if m.checkDeps.Busy() || m.cdPending {
		return
	}
	if m.cdTask < 0 {
		if m.newTasks.Empty() {
			return
		}
	} else if !m.cdWaiting {
		return
	}
	m.cdPending = true
	m.cdPorts.acquire()
}

func (m *Maestro) startCheckDeps() {
	m.cdPending = false
	accesses := 0
	if m.cdTask < 0 {
		id, ok := m.newTasks.Pop()
		if !ok {
			m.cdPorts.release()
			return
		}
		m.cdTask = id
		m.cdParam = 0
		m.cdWaiting = false
		m.tp.Entry(id).checking = true
	} else {
		m.cdWaiting = false
	}
	e := m.tp.Entry(m.cdTask)
	params := e.spec.Params
	stalled := false
	for m.cdParam < len(params) {
		p := params[m.cdParam]
		entry, granted, acc, st := m.dt.ProcessNew(m.cdTask, p.Addr, p.Size, p.Mode)
		accesses += acc
		if st {
			stalled = true
			break
		}
		if m.dt.renaming {
			e.versions = append(e.versions, entry)
		}
		if !granted {
			m.tp.AddDC(m.cdTask, 1)
		}
		m.cdParam++
	}
	m.cdStalled = stalled
	m.checkDeps.Start(m.cfg.cycles(m.cfg.Costs.CheckDepsBase + m.cfg.Costs.CheckDepsPerAccess*accesses))
}

func (m *Maestro) checkDepsDone() {
	m.cdPorts.release()
	if m.cdStalled {
		// Stalled on a full Dependence Table. Park until dt.OnFree
		// re-kicks us — but a slot may already have been released
		// during this service window (the wake-up fired while the
		// block was busy), so check once before parking.
		m.cdWaiting = true
		if m.dt.HasFree() {
			m.kickCheckDeps()
		}
		return
	}
	task := m.cdTask
	entry := m.tp.Entry(task)
	entry.checking = false
	m.tasksChecked++
	if entry.dc == 0 {
		m.readyAtCheck++
		m.globalReady.MustPush(task)
	}
	m.cdTask = -1
	m.kickCheckDeps()
}

// --- Schedule block --------------------------------------------------------

func (m *Maestro) kickSchedule() {
	if m.schedule.Busy() || m.globalReady.Empty() || m.workerIDs.Empty() {
		return
	}
	m.schTask, _ = m.globalReady.Pop()
	m.schCore, _ = m.workerIDs.Pop()
	m.schedule.Start(m.cfg.cycles(m.cfg.Costs.ScheduleCycles))
}

func (m *Maestro) scheduleDone() {
	// Index the core first: the push kicks Send TDs in the same step.
	m.rdySet.add(m.schCore)
	m.rdyTasks[m.schCore].MustPush(m.schTask)
	m.kickSchedule()
}

// --- Send TDs block --------------------------------------------------------

func (m *Maestro) kickSendTDs() {
	if m.sendTDs.Busy() || m.stdPending {
		return
	}
	core := m.rdySet.pickFrom(m.rrPtr, m.canReceive)
	if core < 0 {
		return
	}
	if m.rrPtr = core + 1; m.rrPtr == len(m.rdyTasks) {
		m.rrPtr = 0
	}
	m.stdTask, _ = m.rdyTasks[core].Pop()
	if m.rdyTasks[core].Empty() {
		m.rdySet.remove(core)
	}
	m.stdCore = core
	m.stdPending = true
	m.stdPorts.acquire()
}

func (m *Maestro) startSendTDs() {
	m.stdPending = false
	spec := m.tp.Spec(m.stdTask)
	nTDs := NumTDs(len(spec.Params), m.cfg.MaxParamsPerTD)
	c := m.cfg.Costs
	m.sendTDs.Start(m.cfg.cycles(c.SendTDsBase + c.SendTDsPerTD*nTDs +
		c.SendTDsLinkSetup + c.SendTDsPerParam*len(spec.Params)))
}

func (m *Maestro) sendTDsDone() {
	m.stdPorts.release()
	m.finTasks[m.stdCore].MustPush(m.stdTask)
	m.tasksSent++
	m.tcs[m.stdCore].receive(m.stdTask)
	m.kickSendTDs()
}

// taskFinished is the Task Controller's 1-bit task-finished notification.
func (m *Maestro) taskFinished(core int) {
	m.finishNotif.MustPush(core)
}

// --- Handle Finished block --------------------------------------------------

func (m *Maestro) kickHandleFinished() {
	if m.handleFin.Busy() || m.hfPending {
		return
	}
	core, ok := m.finishNotif.Pop()
	if !ok {
		return
	}
	task, ok := m.finTasks[core].Pop()
	if !ok {
		panic("core: finished notification without a CiFinTasks entry")
	}
	m.hfTask, m.hfCore = task, core
	m.hfPending = true
	m.hfPorts.acquire()
}

func (m *Maestro) startHandleFinished() {
	m.hfPending = false
	task := m.hfTask
	e := m.tp.Entry(task)
	nTDs := 1 + len(e.extra)
	accesses := 0
	m.hfReady = m.hfReady[:0]
	for i, p := range e.spec.Params {
		entry := int32(-1) // ignored without renaming
		if m.dt.renaming {
			entry = e.versions[i]
		}
		grants, acc := m.dt.ProcessFinished(task, p.Addr, entry, p.Mode.Writes())
		accesses += acc
		for _, g := range grants {
			waiter := m.tp.Entry(g.Task)
			if m.tp.AddDC(g.Task, -1) == 0 && !waiter.checking {
				m.hfReady = append(m.hfReady, g.Task)
			}
		}
	}
	c := m.cfg.Costs
	m.handleFin.Start(m.cfg.cycles(c.HandleFinBase + c.HandleFinPerTD*nTDs + c.HandleFinPerAccess*accesses))
}

func (m *Maestro) handleFinishedDone() {
	m.hfPorts.release()
	for _, r := range m.hfReady {
		m.globalReady.MustPush(r)
	}
	m.tp.Free(m.hfTask)
	m.workerIDs.MustPush(m.hfCore)
	m.tasksFinished++
	m.kickHandleFinished()
}
