// Quickstart: the two faces of this repository in one file.
//
//  1. Run real Go tasks under StarSs dataflow semantics: declare what each
//     task reads and writes, submit in program order, and let the runtime
//     extract the parallelism (the paper's Listing 1, as a library).
//  2. Simulate the Nexus++ hardware on a paper workload and print the
//     achieved speedup.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"

	"nexuspp"
)

func main() {
	// --- 1. Executing runtime -------------------------------------------
	// The runtime sizes its dependency-table banks (the software analogue
	// of the Nexus++ Dependence Table banks) from Workers.
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 4})
	ctx := context.Background()

	// A tiny dataflow: two independent producers, one consumer, exactly
	// like annotating three function calls with StarSs pragmas. Every
	// submission returns a typed handle — the software analogue of the
	// task IDs the Nexus++ hardware assigns and tracks. Dependencies name
	// data by base address, as a Nexus++ task descriptor does: here, four
	// made-up ones.
	const leftAddr, rightAddr, totalAddr, cursedAddr = 0x1000, 0x2000, 0x3000, 0x4000
	var left, right, total int
	rt.MustSubmit(nexuspp.Task{
		Name: "produce-left",
		Deps: []nexuspp.Dep{nexuspp.Out(leftAddr)},
		Do:   func(context.Context) error { left = 21; return nil },
	})
	rt.MustSubmit(nexuspp.Task{
		Name: "produce-right",
		Deps: []nexuspp.Dep{nexuspp.Out(rightAddr)},
		Do:   func(context.Context) error { right = 21; return nil },
	})
	combine := rt.MustSubmit(nexuspp.Task{
		Name: "combine",
		Deps: []nexuspp.Dep{nexuspp.In(leftAddr), nexuspp.In(rightAddr), nexuspp.Out(totalAddr)},
		Do:   func(context.Context) error { total = left + right; return nil },
	})
	if err := rt.Wait(ctx); err != nil { // the css barrier pragma, with errors
		panic(err)
	}
	fmt.Printf("dataflow result: %d (task %q id=%d, runtime stats: %v)\n",
		total, combine.Name(), combine.Index(), rt.Stats())

	// Failures propagate: a failed task poisons its transitive dependents,
	// which are skipped and report ErrDependencyFailed with the root cause.
	fail := rt.MustSubmit(nexuspp.Task{
		Name: "flaky-producer",
		Deps: []nexuspp.Dep{nexuspp.Out(cursedAddr)},
		Do:   func(context.Context) error { return errors.New("sector unreadable") },
	})
	dep := rt.MustSubmit(nexuspp.Task{
		Name: "doomed-consumer",
		Deps: []nexuspp.Dep{nexuspp.In(cursedAddr)},
		Do:   func(context.Context) error { return nil }, // never runs
	})
	<-dep.Done()
	fmt.Printf("failure propagation: %q failed (%v); %q skipped=%v\n",
		fail.Name(), fail.Err(), dep.Name(), errors.Is(dep.Err(), nexuspp.ErrDependencyFailed))
	if err := rt.Close(); err != nil {
		fmt.Println("runtime closed with first failure:", err)
	}

	// --- 2. Hardware simulation ------------------------------------------
	// The paper's H.264 wavefront benchmark on 1 and 16 worker cores.
	one, err := nexuspp.Simulate(nexuspp.DefaultConfig(1), nexuspp.Wavefront(42))
	if err != nil {
		panic(err)
	}
	sixteen, err := nexuspp.Simulate(nexuspp.DefaultConfig(16), nexuspp.Wavefront(42))
	if err != nil {
		panic(err)
	}
	fmt.Printf("H.264 wavefront: 1 core %v -> 16 cores %v (speedup %.2fx, utilization %.0f%%)\n",
		one.Makespan, sixteen.Makespan,
		float64(one.Makespan)/float64(sixteen.Makespan),
		sixteen.CoreUtilization*100)

	// The oracle bounds what any scheduler could achieve on this graph.
	oracle := nexuspp.Oracle(nexuspp.Wavefront(42)).Analyze()
	fmt.Printf("oracle: average parallelism %.1f, critical path %v\n",
		oracle.AvgParallelism, oracle.CriticalPath)
}
