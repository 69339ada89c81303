package nexuspp_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"nexuspp"
)

func TestFacadeSimulation(t *testing.T) {
	cfg := nexuspp.DefaultConfig(4)
	res, err := nexuspp.Simulate(cfg, nexuspp.GaussianElimination(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksExecuted == 0 || res.Makespan <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	for _, src := range []nexuspp.Source{
		nexuspp.Independent(1),
		nexuspp.Wavefront(1),
		nexuspp.HorizontalChains(1),
		nexuspp.VerticalChains(1),
	} {
		if src.Total() != 8160 {
			t.Errorf("%s Total = %d, want 8160", src.Name(), src.Total())
		}
	}
	if got := nexuspp.GaussianElimination(250).Total(); got != 31374 {
		t.Errorf("gaussian-250 Total = %d, want 31374 (Table II)", got)
	}
}

func TestFacadeOracle(t *testing.T) {
	g := nexuspp.Oracle(nexuspp.VerticalChains(1))
	a := g.Analyze()
	// 68 column chains: max width 68.
	if a.MaxWidth != 68 {
		t.Errorf("vertical max width = %d, want 68", a.MaxWidth)
	}
}

func TestFacadeRuntime(t *testing.T) {
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 2})
	var order []string
	var n atomic.Int64
	const x, y = 0x40, 0x80
	rt.MustSubmit(nexuspp.Task{
		Deps: []nexuspp.Dep{nexuspp.Out(x)},
		Do:   func(context.Context) error { order = append(order, "w"); n.Add(1); return nil },
	})
	rt.MustSubmit(nexuspp.Task{
		Deps: []nexuspp.Dep{nexuspp.In(x), nexuspp.InOut(y)},
		Do:   func(context.Context) error { order = append(order, "r"); n.Add(1); return nil },
	})
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 2 || order[0] != "w" || order[1] != "r" {
		t.Fatalf("order = %v", order)
	}
}

func TestFacadeErrorPropagation(t *testing.T) {
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 2})
	boom := errors.New("boom")
	const x = 0x40
	fail, err := rt.Submit(context.Background(), nexuspp.Task{
		Name: "producer",
		Deps: []nexuspp.Dep{nexuspp.Out(x)},
		Do:   func(context.Context) error { return boom },
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := rt.MustSubmit(nexuspp.Task{
		Deps: []nexuspp.Dep{nexuspp.In(x)},
		Do:   func(context.Context) error { t.Error("dependent of failed producer ran"); return nil },
	})
	if err := rt.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want root cause", err)
	}
	if !errors.Is(fail.Err(), boom) {
		t.Errorf("producer handle = %v", fail.Err())
	}
	if !errors.Is(dep.Err(), nexuspp.ErrDependencyFailed) || !errors.Is(dep.Err(), boom) {
		t.Errorf("dependent handle = %v", dep.Err())
	}
	if st := rt.Stats(); st.Failed != 1 || st.Skipped != 1 {
		t.Errorf("stats = %v", st)
	}
	if err := rt.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v", err)
	}
	if err := rt.Wait(context.Background()); !errors.Is(err, nexuspp.ErrRuntimeStopped) {
		t.Errorf("Wait after Close = %v, want ErrRuntimeStopped", err)
	}
}

// ExampleSimulate runs the paper's Gaussian elimination workload on a
// simulated 16-core Nexus++ system.
func ExampleSimulate() {
	cfg := nexuspp.DefaultConfig(16)
	res, err := nexuspp.Simulate(cfg, nexuspp.GaussianElimination(50))
	if err != nil {
		panic(err)
	}
	fmt.Println("tasks executed:", res.TasksExecuted)
	// Output:
	// tasks executed: 1274
}

// ExampleNewRuntime executes real Go closures under StarSs dataflow
// semantics on the sharded runtime: the consumer is only released once
// the producer's output is visible.
func ExampleNewRuntime() {
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 4})
	var block int
	const blockAddr = 0x1000 // the dependency names block by an address
	rt.MustSubmit(nexuspp.Task{
		Deps: []nexuspp.Dep{nexuspp.Out(blockAddr)},
		Do:   func(context.Context) error { block = 41; return nil },
	})
	rt.MustSubmit(nexuspp.Task{
		Deps: []nexuspp.Dep{nexuspp.InOut(blockAddr)},
		Do:   func(context.Context) error { block++; return nil },
	})
	if err := rt.Wait(context.Background()); err != nil {
		panic(err)
	}
	fmt.Println("block:", block)
	rt.Close()
	// Output:
	// block: 42
}

// ExampleHandle shows the typed task handles — the software analogue of
// the paper's hardware task IDs: each submission returns a *Handle whose
// Done/Err report the task's outcome, and a failed task poisons its
// transitive dependents, which are skipped with ErrDependencyFailed
// wrapping the root cause.
func ExampleHandle() {
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 2})
	// The gate keeps the producer from finishing — and data from draining,
	// its failure with it — before the consumer is submitted behind it.
	const data = 0x1000
	submitted := make(chan struct{})
	producer, _ := rt.Submit(context.Background(), nexuspp.Task{
		Name: "producer",
		Deps: []nexuspp.Dep{nexuspp.Out(data)},
		Do: func(context.Context) error {
			<-submitted
			return errors.New("disk on fire")
		},
	})
	consumer, _ := rt.Submit(context.Background(), nexuspp.Task{
		Name: "consumer",
		Deps: []nexuspp.Dep{nexuspp.In(data)},
		Do:   func(context.Context) error { return nil }, // never runs
	})
	close(submitted)
	<-consumer.Done()
	fmt.Println("producer:", producer.Err())
	fmt.Println("consumer skipped:", errors.Is(consumer.Err(), nexuspp.ErrDependencyFailed))
	fmt.Println("root cause kept:", errors.Is(consumer.Err(), producer.Err()))
	fmt.Println("close:", rt.Close())
	// Output:
	// producer: disk on fire
	// consumer skipped: true
	// root cause kept: true
	// close: disk on fire
}

// ExampleRuntime_SubmitAll admits a whole batch of independent tasks under
// one window reservation and waits for the results.
func ExampleRuntime_SubmitAll() {
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 4})
	squares := make([]int, 5)
	tasks := make([]nexuspp.Task, len(squares))
	for i := range tasks {
		i := i
		tasks[i] = nexuspp.Task{
			Deps: []nexuspp.Dep{nexuspp.Out(uint64(i))},
			Do:   func(context.Context) error { squares[i] = i * i; return nil },
		}
	}
	handles, err := rt.SubmitAll(context.Background(), tasks)
	if err != nil {
		panic(err)
	}
	for _, h := range handles {
		if err := h.Wait(context.Background()); err != nil {
			panic(err)
		}
	}
	fmt.Println(squares)
	rt.Close()
	// Output:
	// [0 1 4 9 16]
}

func TestSimulationMatchesOracleBound(t *testing.T) {
	// No simulated schedule may beat the critical path.
	src := nexuspp.Wavefront(9)
	an := nexuspp.Oracle(src).Analyze()
	res, err := nexuspp.Simulate(nexuspp.DefaultConfig(256), nexuspp.Wavefront(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < an.CriticalPath {
		t.Fatalf("makespan %v beats the critical path %v", res.Makespan, an.CriticalPath)
	}
}

func TestFacadeBackendRegistry(t *testing.T) {
	all := nexuspp.Backends()
	if len(all) != 5 {
		t.Fatalf("Backends() returned %d engines, want 5", len(all))
	}
	for _, b := range all {
		if _, err := nexuspp.LookupBackend(b.Name()); err != nil {
			t.Errorf("LookupBackend(%q): %v", b.Name(), err)
		}
	}
	if _, err := nexuspp.LookupBackend("no-such-engine"); err == nil {
		t.Error("LookupBackend(no-such-engine) succeeded")
	}
	if _, err := nexuspp.LookupWorkload("wavefront"); err != nil {
		t.Errorf("LookupWorkload(wavefront): %v", err)
	}
}

func TestFacadeFromSpecs(t *testing.T) {
	specs := []nexuspp.TaskSpec{
		{ID: 0, Params: []nexuspp.Param{{Addr: 8, Size: 4, Mode: nexuspp.WriteOnly}}, Exec: 100},
		{ID: 1, Params: []nexuspp.Param{{Addr: 8, Size: 4, Mode: nexuspp.ReadWrite}}, Exec: 100},
	}
	src := nexuspp.FromSpecs("", specs)
	if src.Name() != "custom" {
		t.Errorf("Name = %q, want custom", src.Name())
	}
	if src.Total() != 2 {
		t.Errorf("Total = %d", src.Total())
	}
	g := nexuspp.Oracle(nexuspp.FromSpecs("pair", specs))
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want the RAW edge", g.NumEdges())
	}
	b, err := nexuspp.LookupBackend("runtime")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run(context.Background(),
		nexuspp.BackendConfig{Workers: 2, ZeroCost: true}, nexuspp.FromSpecs("pair", specs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TasksExecuted != 2 {
		t.Errorf("TasksExecuted = %d, want 2", rep.TasksExecuted)
	}
}
