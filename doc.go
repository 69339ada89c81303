// Package nexuspp reproduces "Hardware-Based Task Dependency Resolution for
// the StarSs Programming Model" (Dallou & Juurlink, ICPP Workshops 2012):
// the Nexus++ hardware task-management accelerator, the simulation
// infrastructure used to evaluate it, the baselines it is compared against,
// and a real executing StarSs-style task runtime built on the same
// dependency-resolution algorithm, with the dependence table sharded into
// lock-striped banks so independent keys resolve concurrently.
//
// The package itself is a thin facade over the internal packages; see
// README.md for the architecture and DESIGN.md for the paper-to-code map.
//
// One API, five engines: every execution engine — the Nexus++ simulator,
// the original-Nexus simulator, the software-RTS model, the executing
// sharded runtime and the single-maestro baseline — sits behind the same
// Backend interface and returns the same Report shape, so any workload can
// be compared across all of them:
//
//	for _, b := range nexuspp.Backends() {
//		rep, err := b.Run(ctx, nexuspp.BackendConfig{Workers: 16}, nexuspp.Wavefront(42))
//		if err != nil { // the original Nexus may reject a workload outright
//			fmt.Println(b.Name(), "FAILS:", err)
//			continue
//		}
//		fmt.Println(rep.Backend, rep.TasksExecuted, rep.Span())
//	}
//
// The executing engines replay the traced workload for real: each traced
// task becomes a Go closure whose dependencies are the trace's parameter
// list and whose body is synthesized from the trace's timing (or empty
// under BackendConfig.ZeroCost), so the real runtime's schedules can be
// cross-validated against the oracle and the simulators on the paper's own
// workloads. Custom traces run through nexuspp.FromSpecs.
//
// Simulating Nexus++ directly (full hardware-parameter control):
//
//	cfg := nexuspp.DefaultConfig(64)            // 64 worker cores, Table IV defaults
//	res, err := nexuspp.Simulate(cfg, nexuspp.Wavefront(42))
//	fmt.Println(res.Makespan, res.CoreUtilization)
//
// Running real Go tasks with StarSs semantics:
//
//	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 8})
//	const block = 0x1000 // the data's base address, the Dependence Table key
//	producer, _ := rt.Submit(ctx, nexuspp.Task{
//		Deps: []nexuspp.Dep{nexuspp.Out(block)},
//		Do:   func(ctx context.Context) error { return produce(ctx) },
//	})
//	consumer, _ := rt.Submit(ctx, nexuspp.Task{
//		Deps: []nexuspp.Dep{nexuspp.In(block)},
//		Do:   func(ctx context.Context) error { return consume(ctx) },
//	})
//	<-consumer.Done()           // per-task completion, the paper's task IDs
//	err := consumer.Err()       // wraps ErrDependencyFailed if producer failed
//	err = rt.WaitOn(ctx, block) // wait on: an empty task behind the address's accesses
//	err = rt.Wait(ctx)          // barrier; returns the first root-cause failure
//	err = rt.Close()            // refuse new work, drain, stop, report the first failure
//	_ = producer
//
// Every submission returns a *Handle — the software analogue of the task
// IDs the Nexus++ hardware assigns and tracks. Task bodies take a context
// and may fail; a failed, panicking or cancelled task poisons its
// transitive dependents, which are skipped (never run) while the
// dependence table drains normally. Batches of tasks can be admitted with
// rt.SubmitAll(ctx, []nexuspp.Task{...}), which reserves the in-flight
// window once per chunk on high-frequency submission paths and checks a
// chunk's dependences with each bank locked once. rt.WaitOn(ctx,
// addrs...) is itself a task — no body, an inout access to each address —
// so it is ordered by the same table, counted by Stats like any task, and
// safe to call from inside a task body.
//
// A dependency is what a Nexus++ task descriptor lists: the base address of
// the data, which is the Dependence Table key, and a direction. In, Out and
// InOut build one; the literal Dep{Addr: a, Mode: ReadWrite} is InOut(a).
// rt.Scope(label) makes an isolated namespace on a shared runtime (one
// master core's address space): every call makes a new one, the label is
// for diagnostics only, and the namespace is a field of the table key, not
// a wrapper around it.
package nexuspp
