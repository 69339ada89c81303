package nexuspp

import (
	"io"

	"nexuspp/internal/backend"
	"nexuspp/internal/core"
	"nexuspp/internal/depgraph"
	"nexuspp/internal/obs"
	"nexuspp/internal/service"
	"nexuspp/internal/starss"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// --- Unified backend API -------------------------------------------------

// Backend is one execution engine driving a traced workload to completion
// behind the unified API: Name, Describe, and
// Run(ctx, BackendConfig, Source) -> *Report. There are five engines:
//
//	nexuspp  the Nexus++ hardware simulator (the paper's SSIII model)
//	nexus    the original-Nexus simulator (hard limits; may reject workloads)
//	softrts  the software StarSs runtime model
//	runtime  the executing sharded runtime replaying the trace for real
//	maestro  the executing single-resolver baseline
type Backend = backend.Backend

// BackendConfig is the engine-independent run configuration; engines ignore
// the knobs that do not apply to them.
type BackendConfig = backend.Config

// Report is the unified result shape shared by all five engines: tasks
// executed, a simulated makespan or a measured wall time, and a typed
// Detail with the engine's native result.
type Report = backend.Report

// WorkloadInfo is one named entry of the workload registry.
type WorkloadInfo = backend.WorkloadInfo

// Backends returns the five engines sorted by name.
func Backends() []Backend { return backend.All() }

// LookupBackend resolves a backend by name; an unknown name fails with an
// error listing every valid name.
func LookupBackend(name string) (Backend, error) { return backend.Lookup(name) }

// Workloads returns the named workloads sorted by name.
func Workloads() []WorkloadInfo { return backend.Workloads() }

// LookupWorkload resolves a named workload; an unknown name fails with an
// error listing every valid name in sorted order.
func LookupWorkload(name string) (WorkloadInfo, error) { return backend.LookupWorkload(name) }

// --- Hardware simulation -----------------------------------------------

// Config parameterises a simulated Nexus++ system (the paper's Table IV).
type Config = core.Config

// Result reports one simulation run.
type Result = core.Result

// Costs gives the per-block service costs in Nexus++ cycles.
type Costs = core.Costs

// DefaultConfig returns the paper's configuration for the given number of
// worker cores, with double buffering enabled.
func DefaultConfig(workers int) Config { return core.DefaultConfig(workers) }

// Simulate runs src to completion on a Nexus++ system described by cfg.
func Simulate(cfg Config, src Source) (*Result, error) { return core.Run(cfg, src) }

// --- Workloads -----------------------------------------------------------

// Source streams tasks in submission order.
type Source = workload.Source

// TaskSpec describes one traced task.
type TaskSpec = trace.TaskSpec

// Param is one entry of a task's input/output list.
type Param = trace.Param

// AccessMode is the declared direction of a task parameter.
type AccessMode = trace.AccessMode

// Access modes for building Params (the In/Out/InOut names are taken by the
// runtime's Dep constructors).
const (
	// ReadOnly marks a parameter the task only reads.
	ReadOnly = trace.In
	// WriteOnly marks a parameter the task only writes.
	WriteOnly = trace.Out
	// ReadWrite marks a parameter the task reads and writes.
	ReadWrite = trace.InOut
)

// Independent returns the paper's independent-task benchmark (8160
// H.264-sized tasks, no dependencies).
func Independent(seed uint64) Source { return workload.Independent(seed) }

// Wavefront returns the H.264 macroblock wavefront benchmark (Figure 4a).
func Wavefront(seed uint64) Source { return workload.Wavefront(seed) }

// HorizontalChains returns the Figure 4(b) benchmark.
func HorizontalChains(seed uint64) Source { return workload.HorizontalChains(seed) }

// VerticalChains returns the Figure 4(c) benchmark.
func VerticalChains(seed uint64) Source { return workload.VerticalChains(seed) }

// GaussianElimination returns the Gaussian elimination with partial
// pivoting task graph (Figure 5) for an n x n matrix.
func GaussianElimination(n int) Source {
	return workload.Gaussian(workload.GaussianConfig{N: n})
}

// StarPUDepsConfig parameterises the TaskTorrent/StarPU wait-chain grid.
type StarPUDepsConfig = workload.StarPUDepsConfig

// StarPUDeps returns the TaskTorrent/StarPU `deps` wait-chain grid: an
// n_rows x n_cols grid where each task waits on n_edges wrap-around
// predecessors in the previous column.
func StarPUDeps(cfg StarPUDepsConfig) Source { return workload.StarPUDeps(cfg) }

// RandomDAGConfig parameterises the seeded random DAG generator.
type RandomDAGConfig = workload.RandomDAGConfig

// RandomDAG returns a seeded random task DAG with bounded fan-in over a
// sliding predecessor window; the same seed always yields the same graph.
func RandomDAG(cfg RandomDAGConfig) Source { return workload.RandomDAG(cfg) }

// SpatialSkewConfig parameterises the skewed-cost spatial decomposition.
type SpatialSkewConfig = workload.SpatialSkewConfig

// SpatialSkew returns the skewed-cost spatial-decomposition workload:
// sweeps over a tile grid with von-Neumann neighbour dependencies and
// bounded-Pareto task costs.
func SpatialSkew(cfg SpatialSkewConfig) Source { return workload.SpatialSkew(cfg) }

// Oracle builds the reference dependency graph of a workload; its analyses
// bound every achievable speedup and validate simulated schedules.
func Oracle(src Source) *depgraph.Graph { return depgraph.Build(src) }

// FromSpecs builds a Source replaying the given task specs in order, so
// callers can run custom traced workloads on any backend without touching
// the internal workload package. The name identifies the workload in
// reports; empty selects "custom". The specs should have sequential IDs
// starting at 0 (the dependency-graph oracle indexes by ID).
func FromSpecs(name string, specs []TaskSpec) Source {
	if name == "" {
		name = "custom"
	}
	return workload.FromTrace(&trace.Trace{Name: name, Tasks: specs})
}

// --- Executing runtime ----------------------------------------------------

// Runtime is a real StarSs-style task-dataflow runtime for Go closures,
// scheduled by the Nexus++ dependency-resolution algorithm. Its dependency
// table is sharded into lock-striped banks (the software analogue of the
// Nexus++ Dependence Table banks) so independent keys resolve concurrently;
// SubmitAll admits a batch of tasks under one window reservation per chunk,
// holding each task's banks for that task only. Every submission returns a *Handle (the software analogue of the paper's
// hardware task IDs) carrying the task's completion channel and error; a
// failed, panicking or cancelled task poisons its transitive dependents,
// which are skipped with an error wrapping ErrDependencyFailed.
type Runtime = starss.Runtime

// Handle tracks one submitted task: Done, Err, Outcome, Name, Index, Wait.
type Handle = starss.Handle

// RuntimeConfig parameterises a Runtime: workers, in-flight window and
// instrumentation. The number of dependency-table banks is not a setting:
// the runtime derives it from Workers.
type RuntimeConfig = starss.Config

// RuntimeStats reports the runtime counters, including the Failed and
// Skipped poisoning counters.
type RuntimeStats = starss.Stats

// Task is a unit of executable work with declared dependencies. The body
// is Do (context-aware, may fail), which the runtime calls once.
type Task = starss.Task

// Dep declares one data access of a Task: the base address of the data and
// the AccessMode of the access, one entry of a Nexus++ task descriptor.
type Dep = starss.Dep

// Runtime lifecycle errors, re-exported for errors.Is against handle and
// Wait/Close results.
var (
	// ErrRuntimeStopped is returned by Submit, SubmitAll,
	// Scope.TrySubmitAll, Wait and WaitOn after Close.
	ErrRuntimeStopped = starss.ErrStopped
	// ErrDependencyFailed marks a task skipped because a transitive
	// dependency failed; the wrapping error carries the root cause.
	ErrDependencyFailed = starss.ErrDependencyFailed
	// ErrTaskPanicked marks a task whose body panicked.
	ErrTaskPanicked = starss.ErrTaskPanicked
	// ErrTaskTimeout marks a body call that outlived its budget: a service
	// task's attempt past its timeout_ms.
	ErrTaskTimeout = starss.ErrTaskTimeout
)

// In declares a read-only dependency on the data at base address addr.
func In(addr uint64) Dep { return starss.In(addr) }

// Out declares a write-only dependency on the data at base address addr.
func Out(addr uint64) Dep { return starss.Out(addr) }

// InOut declares a read-write dependency on the data at base address addr.
func InOut(addr uint64) Dep { return starss.InOut(addr) }

// NewRuntime starts an executing runtime.
func NewRuntime(cfg RuntimeConfig) *Runtime { return starss.New(cfg) }

// Scope is an isolated namespace on a shared Runtime, created with
// Runtime.Scope: every call makes a new one (the name is a label only),
// keys submitted through different scopes never alias, and each scope
// keeps its own submitted/executed/failed/skipped counters. It
// is the software analogue of one master core among many sharing the
// paper's hardware task manager, and the isolation primitive under the
// multi-tenant task service.
type Scope = starss.Scope

// --- Observability --------------------------------------------------------

// EventRecorder collects the runtime's lifecycle event stream
// (submit/ready/run/finish/poison) into per-worker ring buffers; enable it
// with RuntimeConfig.EventBuffer and drain it via Runtime.Events. Drained
// logs export to Chrome trace-viewer JSON with WriteChromeTrace, and
// `nexusbench trace` wraps the whole flow.
type EventRecorder = obs.Recorder

// Event is one recorded lifecycle transition: kind, task ID, key count,
// bank, worker, and a monotonic timestamp.
type Event = obs.Event

// EventKind is a lifecycle transition type.
type EventKind = obs.Kind

// The recorded lifecycle transitions, in task order: admission, dependence
// count reaching zero, body start, body completion, and skip-by-poisoning.
const (
	EventSubmit = obs.KindSubmit
	EventReady  = obs.KindReady
	EventRun    = obs.KindRun
	EventFinish = obs.KindFinish
	EventPoison = obs.KindPoison
)

// WriteChromeTrace converts a drained event log to Chrome trace-viewer
// JSON, loadable in chrome://tracing and ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return obs.WriteChromeTrace(w, events)
}

// --- Task service ---------------------------------------------------------

// ServiceServer is the long-running multi-tenant task service: one shared
// sharded Runtime, many isolated client sessions with per-session admission
// windows (429 backpressure), idle expiry, and graceful drain. cmd/nexusd
// is the daemon wrapping it.
type ServiceServer = service.Server

// ServiceConfig parameterises a ServiceServer.
type ServiceConfig = service.Config

// ServiceClient is the Go client for the nexusd HTTP API.
type ServiceClient = service.Client

// ServiceSession is a client-side handle on one server session.
type ServiceSession = service.Session

// ServiceTaskSpec is the wire form of one task: a parameter list of
// (addr, size, mode) plus a synthesized execution time.
type ServiceTaskSpec = service.TaskSpec

// ServiceParam is one entry of a wire task's parameter list.
type ServiceParam = service.Param

// NewService starts an in-process task service; expose it with Handler and
// shut it down with Close.
func NewService(cfg ServiceConfig) *ServiceServer { return service.New(cfg) }

// NewServiceClient returns a client for a daemon at base
// (e.g. "http://127.0.0.1:8037").
func NewServiceClient(base string) *ServiceClient { return service.NewClient(base) }

// ServiceTaskFromSpec converts a traced task into its wire form, so traced
// workloads can be submitted to a live daemon.
func ServiceTaskFromSpec(spec TaskSpec) ServiceTaskSpec { return service.FromTraceSpec(spec) }
