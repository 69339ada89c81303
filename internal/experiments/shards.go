package experiments

import (
	"context"
	"fmt"
	"runtime"

	"nexuspp/internal/backend"
	"nexuspp/internal/report"
	"nexuspp/internal/starss"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// ShardScaling measures the executing runtime's replay throughput under
// two dependency resolvers, both driven through the unified backend
// interface in zero-cost mode (empty task bodies, so the resolver is the
// only cost): the single-maestro baseline backend (every submit
// and finish funnels through one resolver goroutine — the software
// bottleneck of the paper's SSI motivation) and the sharded runtime
// backend. Striped keys is the workload sharding exists for; a single
// contended key is serial by construction and bounds what any resolver can
// do.
func ShardScaling(opts Options) (*report.Table, error) {
	tasks := 100_000
	if opts.Full {
		tasks = 1_000_000
	}
	cores := opts.Cores
	if cores == nil {
		cores = []int{2, 4, 8}
		if runtime.GOMAXPROCS(0) >= 16 {
			cores = append(cores, 16)
		}
	}
	resolvers := []backend.Backend{mustBackend("maestro"), mustBackend("runtime")}
	run := func(b backend.Backend, workers int, src workload.Source) (float64, starss.Stats, error) {
		opts.logf("run %-28s workers=%-3d resolver=%s", src.Name(), workers, b.Name())
		rep, err := b.Run(context.Background(), backend.Config{Workers: workers, ZeroCost: true}, src)
		if err != nil {
			return 0, starss.Stats{}, err
		}
		detail, ok := rep.Detail.(*starss.ReplayResult)
		if !ok {
			return 0, starss.Stats{}, fmt.Errorf("shard scaling: %s reported %T, want *starss.ReplayResult", b.Name(), rep.Detail)
		}
		return rep.Throughput(), detail.Stats, nil
	}

	t := report.NewTable(
		fmt.Sprintf("Dependency-resolution scaling: single maestro vs sharded banks (%d striped / %d contended empty tasks replayed, tasks/s)", tasks, tasks/10),
		"workers", "maestro striped", "sharded striped", "speedup vs maestro",
		"maestro contended", "sharded contended")
	var health starss.Stats
	for _, w := range cores {
		row := []any{w}
		var striped []float64
		for _, r := range resolvers {
			thr, st, err := run(r, w, stripedSource(tasks, 4096))
			if err != nil {
				return nil, err
			}
			accumulate(&health, st)
			striped = append(striped, thr)
			row = append(row, thr)
		}
		row = append(row, striped[1]/striped[0])
		for _, r := range resolvers {
			thr, st, err := run(r, w, contendedSource(tasks/10))
			if err != nil {
				return nil, err
			}
			accumulate(&health, st)
			row = append(row, thr)
		}
		t.AddRow(row...)
	}
	t.AddNote("maestro: one resolver goroutine over the same table and scheduler, a synchronous channel rendezvous per submit and per finish (the serialization the paper motivates against); a batch shares only its window reservation, every task still crosses on its own")
	t.AddNote("striped keys: 4096 independent InOut chains, the resolver itself is the bottleneck; sharded banks plus batch admission remove it")
	t.AddNote("contended: every task InOuts one key (1/10th the task count — the chain is serial by construction), no resolver design can help; tasks/s stays comparable")
	t.AddNote("runtime health across all runs: %v (failed/skipped must be 0 on this workload)", health)
	if health.Failed != 0 || health.Skipped != 0 {
		return nil, fmt.Errorf("shard scaling: tasks failed or were skipped: %v", health)
	}
	return t, nil
}

// accumulate folds one run's counters into the experiment-wide health
// totals, so poisoning (Failed/Skipped) is observable in the report.
func accumulate(total *starss.Stats, st starss.Stats) {
	total.Submitted += st.Submitted
	total.Executed += st.Executed
	total.Failed += st.Failed
	total.Skipped += st.Skipped
	total.Hazards += st.Hazards
	if st.MaxInFlight > total.MaxInFlight {
		total.MaxInFlight = st.MaxInFlight
	}
}

// stripedSource builds n empty tasks spread across k InOut key chains: keys
// in different banks resolve concurrently, so it exposes resolver
// parallelism without any real work.
func stripedSource(n, k int) workload.Source {
	tasks := make([]trace.TaskSpec, n)
	for i := range tasks {
		tasks[i] = trace.TaskSpec{
			ID:     uint64(i),
			Params: []trace.Param{{Addr: uint64(i%k)*64 + 64, Size: 4, Mode: trace.InOut}},
		}
	}
	return workload.FromTrace(&trace.Trace{Name: fmt.Sprintf("striped-%d", k), Tasks: tasks})
}

// contendedSource builds n empty tasks all InOut-ing a single key: one
// serial dependency chain, the resolver-design-independent lower bound.
func contendedSource(n int) workload.Source {
	tasks := make([]trace.TaskSpec, n)
	for i := range tasks {
		tasks[i] = trace.TaskSpec{
			ID:     uint64(i),
			Params: []trace.Param{{Addr: 0x40, Size: 4, Mode: trace.InOut}},
		}
	}
	return workload.FromTrace(&trace.Trace{Name: "contended", Tasks: tasks})
}
