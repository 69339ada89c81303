package nexuspp_test

// One benchmark per table/figure of the paper's evaluation, plus
// micro-benchmarks of the load-bearing structures. The figure benchmarks
// run one representative simulation per iteration and report the achieved
// speedup as a custom metric; `go run ./cmd/nexusbench` regenerates the
// complete tables with every operating point.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexuspp"
	"nexuspp/internal/core"
	"nexuspp/internal/faults"
	"nexuspp/internal/service"
	"nexuspp/internal/sim"
	"nexuspp/internal/softrts"
	"nexuspp/internal/starss"
	"nexuspp/internal/workload"
)

// baselines caches 1-worker makespans shared across benchmarks.
var baselines struct {
	once      sync.Once
	contended sim.Time // independent tasks, memory contention
	free      sim.Time // independent tasks, contention-free
	wavefront sim.Time
}

func baseline(b *testing.B) {
	b.Helper()
	baselines.once.Do(func() {
		run := func(cfg core.Config, src workload.Source) sim.Time {
			res, err := core.Run(cfg, src)
			if err != nil {
				panic(err)
			}
			return res.Makespan
		}
		baselines.contended = run(core.DefaultConfig(1), workload.Independent(42))
		cf := core.DefaultConfig(1)
		cf.Mem.ContentionFree = true
		baselines.free = run(cf, workload.Independent(42))
		baselines.wavefront = run(core.DefaultConfig(1), workload.Wavefront(42))
	})
}

func simOnce(b *testing.B, cfg core.Config, mk func() workload.Source, base sim.Time) {
	b.Helper()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, mk())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if base > 0 && last != nil {
		b.ReportMetric(float64(base)/float64(last.Makespan), "speedup")
	}
	if last != nil {
		b.ReportMetric(float64(last.TasksExecuted)/b.Elapsed().Seconds()*float64(b.N), "simtasks/s")
	}
}

// BenchmarkTable2 measures generating the Gaussian task graph whose counts
// and weights reproduce Table II (n=1000: 500499 tasks).
func BenchmarkTable2_GaussianGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := workload.Gaussian(workload.GaussianConfig{N: 1000})
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if n != workload.GaussianTaskCount(1000) {
			b.Fatalf("generated %d tasks", n)
		}
	}
}

// BenchmarkFig6 runs the design-space-exploration operating points of
// Figure 6 (independent tasks, 256 cores, contention-free).
func BenchmarkFig6(b *testing.B) {
	baseline(b)
	b.Run("DT=2K_TP=8K", func(b *testing.B) {
		cfg := core.DefaultConfig(256)
		cfg.Mem.ContentionFree = true
		cfg.TaskPoolEntries = 8192
		cfg.DepTableEntries = 2048
		simOnce(b, cfg, func() workload.Source { return workload.Independent(42) }, baselines.free)
	})
	b.Run("DT=8K_TP=512", func(b *testing.B) {
		cfg := core.DefaultConfig(256)
		cfg.Mem.ContentionFree = true
		cfg.TaskPoolEntries = 512
		cfg.DepTableEntries = 8192
		simOnce(b, cfg, func() workload.Source { return workload.Independent(42) }, baselines.free)
	})
}

// BenchmarkFig7 runs each Figure 4 dependency pattern on 64 cores.
func BenchmarkFig7(b *testing.B) {
	baseline(b)
	patterns := []struct {
		name string
		p    workload.Pattern
		base sim.Time
	}{
		{"independent", workload.PatternIndependent, 0},
		{"wavefront", workload.PatternWavefront, 0},
		{"horizontal", workload.PatternHorizontal, 0},
		{"vertical", workload.PatternVertical, 0},
	}
	for _, pat := range patterns {
		pat := pat
		b.Run(pat.name, func(b *testing.B) {
			base := baselines.contended
			if pat.p == workload.PatternWavefront {
				base = baselines.wavefront
			} else if pat.p != workload.PatternIndependent {
				base = 0 // per-pattern baselines are in nexusbench fig7
			}
			simOnce(b, core.DefaultConfig(64), func() workload.Source {
				return workload.Grid(workload.GridConfig{Pattern: pat.p, Seed: 42})
			}, base)
		})
	}
}

// BenchmarkFig8 runs Gaussian elimination operating points of Figure 8.
func BenchmarkFig8(b *testing.B) {
	sizes := []struct {
		n, cores int
	}{
		{250, 4},
		{250, 64},
		{500, 16},
	}
	for _, s := range sizes {
		s := s
		b.Run("n"+itoa(s.n)+"_c"+itoa(s.cores), func(b *testing.B) {
			base, err := core.Run(core.DefaultConfig(1), workload.Gaussian(workload.GaussianConfig{N: s.n}))
			if err != nil {
				b.Fatal(err)
			}
			simOnce(b, core.DefaultConfig(s.cores), func() workload.Source {
				return workload.Gaussian(workload.GaussianConfig{N: s.n})
			}, base.Makespan)
		})
	}
}

// BenchmarkHeadline runs the paper's three headline operating points
// (SSV: 54x / 143x / 221x).
func BenchmarkHeadline(b *testing.B) {
	baseline(b)
	b.Run("64cores_contention", func(b *testing.B) {
		simOnce(b, core.DefaultConfig(64),
			func() workload.Source { return workload.Independent(42) }, baselines.contended)
	})
	b.Run("256cores_contention_free", func(b *testing.B) {
		cfg := core.DefaultConfig(256)
		cfg.Mem.ContentionFree = true
		simOnce(b, cfg, func() workload.Source { return workload.Independent(42) }, baselines.free)
	})
	b.Run("256cores_no_prep", func(b *testing.B) {
		cfg := core.DefaultConfig(256)
		cfg.Mem.ContentionFree = true
		cfg.DisableTaskPrep = true
		simOnce(b, cfg, func() workload.Source { return workload.Independent(42) }, baselines.free)
	})
}

// BenchmarkAblationBuffering sweeps the Task Controller buffering depth.
func BenchmarkAblationBuffering(b *testing.B) {
	baseline(b)
	for _, depth := range []int{1, 2, 4} {
		depth := depth
		b.Run("depth"+itoa(depth), func(b *testing.B) {
			cfg := core.DefaultConfig(64)
			cfg.BufferingDepth = depth
			simOnce(b, cfg, func() workload.Source { return workload.Independent(42) }, baselines.contended)
		})
	}
}

// BenchmarkRTS contrasts the software runtime model with Nexus++.
func BenchmarkRTS(b *testing.B) {
	b.Run("software_16cores", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := softrts.Run(softrts.DefaultConfig(16), workload.Independent(42)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nexuspp_16cores", func(b *testing.B) {
		baseline(b)
		simOnce(b, core.DefaultConfig(16),
			func() workload.Source { return workload.Independent(42) }, baselines.contended)
	})
}

// --- Micro-benchmarks of the load-bearing structures ---------------------

func BenchmarkSimEngine(b *testing.B) {
	eng := sim.NewEngine()
	var next func()
	n := 0
	next = func() {
		n++
		if n < b.N {
			eng.After(2*sim.Nanosecond, next)
		}
	}
	b.ResetTimer()
	eng.After(0, next)
	eng.Run()
}

// BenchmarkCoreRunGaussian250 is the simulator's host cost on Table II's
// smallest matrix (31 374 tasks): ns/event and allocs/task at a core count
// where per-worker scans are invisible (16) and at the paper's largest
// (256), so a host cost that grows with the core count shows as a gap
// between the two.
func BenchmarkCoreRunGaussian250(b *testing.B) {
	src := workload.Gaussian(workload.GaussianConfig{N: 250})
	for _, workers := range []int{16, 256} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			cfg := core.DefaultConfig(workers)
			b.ReportAllocs()
			var events, tasks uint64
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg, src)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
				tasks += res.TasksExecuted
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(tasks), "allocs/task")
			b.ReportMetric(float64(events)/float64(tasks), "events/task")
		})
	}
}

func BenchmarkDepTableProcessNew(b *testing.B) {
	dt := core.NewDepTable(4096, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%2048+1) * 1024
		granted, _, _ := dt.ProcessNew(int32(i), addr, 1024, true)
		if granted {
			dt.ProcessFinished(int32(i), addr, true)
		}
	}
}

func BenchmarkRuntimeThroughput(b *testing.B) {
	rt := starss.New(starss.Config{Workers: 4, Window: 256})
	defer rt.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Submit(ctx, starss.Task{
			Deps: []starss.Dep{starss.InOut(i % 64)},
			Do:   func(context.Context) error { return nil },
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := rt.Wait(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardScalability is the contended-vs-independent-keys
// scalability benchmark for the sharded dependency banks, against the
// single-maestro baseline (every Submit and finish funnels
// through one resolver goroutine — the serialization the paper motivates
// against) and against the sharded table clamped to one bank. On
// independent keys (each submitter goroutine owns a disjoint key range)
// sharding must win; on one globally contended key the dependency chain
// itself is serial and no resolver design can help. Both are measured as
// full Submit→completion throughput (tasks/s, submission from GOMAXPROCS
// goroutines, Barrier included). `go run ./cmd/nexusbench exp shards` prints
// the same comparison as a table.
func BenchmarkShardScalability(b *testing.B) {
	resolvers := []struct {
		name string
		mk   func(workers int) *starss.Runtime
	}{
		{"maestro", func(w int) *starss.Runtime {
			return starss.NewMaestro(starss.Config{Workers: w, Window: 4096})
		}},
		{"single_bank", func(w int) *starss.Runtime {
			return starss.New(starss.Config{Workers: w, Shards: 1, Window: 4096})
		}},
		{"sharded", func(w int) *starss.Runtime {
			return starss.New(starss.Config{Workers: w, Window: 4096})
		}},
	}
	for _, workers := range []int{4, 8} {
		for _, tc := range resolvers {
			tc := tc
			b.Run("independent_w"+itoa(workers)+"_"+tc.name, func(b *testing.B) {
				rt := tc.mk(workers)
				ctx := context.Background()
				var gid atomic.Int64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					g := gid.Add(1)
					i := int64(0)
					for pb.Next() {
						i++
						if _, err := rt.Submit(ctx, starss.Task{
							Deps: []starss.Dep{starss.InOut([2]int64{g, i % 512})},
							Do:   func(context.Context) error { return nil },
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
				if err := rt.Wait(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			})
			b.Run("contended_w"+itoa(workers)+"_"+tc.name, func(b *testing.B) {
				rt := tc.mk(workers)
				ctx := context.Background()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := rt.Submit(ctx, starss.Task{
							Deps: []starss.Dep{starss.InOut("hot")},
							Do:   func(context.Context) error { return nil },
						}); err != nil {
							b.Fatal(err)
						}
					}
				})
				if err := rt.Wait(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkObsOverhead is the observability overhead guard: the same
// Submit→completion loop with the event layer off (the default — must stay
// within noise of the uninstrumented runtime, since "off" costs one nil
// check per emission point), with bank counters, and with full event
// recording. CI runs it at -benchtime=1x as a smoke; the regression check is
// bench/'s traced run (obs.overhead_ratio).
func BenchmarkObsOverhead(b *testing.B) {
	configs := []struct {
		name string
		cfg  starss.Config
	}{
		{"off", starss.Config{Workers: 4, Window: 256}},
		{"counters", starss.Config{Workers: 4, Window: 256, BankCounters: true}},
		{"events", starss.Config{Workers: 4, Window: 256, EventBuffer: 4096}},
	}
	for _, tc := range configs {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rt := starss.New(tc.cfg)
			defer rt.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Submit(ctx, starss.Task{
					Deps: []starss.Dep{starss.InOut(i % 64)},
					Do:   func(context.Context) error { return nil },
				}); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Wait(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkFaultOverhead is the fault-injection overhead guard, the
// BenchmarkObsOverhead discipline applied to internal/faults: the same
// Submit→completion loop with injection off (nil injector — one nil check
// per task, must stay within noise), with an armed injector whose rule
// never fires (the hash is paid, the fault is not), and with live injection
// plus retries recovering every injected failure.
func BenchmarkFaultOverhead(b *testing.B) {
	configs := []struct {
		name string
		in   *faults.Plan
		task starss.Task
	}{
		{"off", nil, starss.Task{}},
		{"armed_cold", &faults.Plan{Seed: 1, Rules: []faults.Rule{{Site: faults.SiteTaskError, Prob: 0}}}, starss.Task{}},
		// Injected errors at 0.5% with a deep retry budget: every failure
		// recovers, so the loop measures injection + re-arm cost, not a
		// different workload.
		{"active", &faults.Plan{Seed: 1, Rules: []faults.Rule{{Site: faults.SiteTaskError, Prob: 0.005}}},
			starss.Task{MaxRetries: 8, RetryBackoff: time.Microsecond, RetryMaxBackoff: 2 * time.Microsecond}},
	}
	for _, tc := range configs {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rt := starss.New(starss.Config{Workers: 4, Window: 256, Faults: faults.New(tc.in)})
			defer rt.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := tc.task
				t.Deps = []starss.Dep{starss.InOut(i % 64)}
				t.Do = func(context.Context) error { return nil }
				if _, err := rt.Submit(ctx, t); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Wait(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

// BenchmarkSubmitAll measures what a batch saves against task-at-a-time
// Submit on the same independent-keys workload: per 256-task chunk instead
// of per task, one window reservation, one handle block and a node block
// reused from a drained chunk (Submit allocates a node and a handle for
// every task), and one hand-off to the ready queue per 32 ready tasks. The
// bank work is the same on both sides — SubmitAll holds each task's banks
// for that task only, as Submit does. scoped_addr and scoped_any push the
// same batch through Scope.SubmitAll, keyed by address and by string: the
// per-key cost of the Dependence Table for an address and for a key of
// another kind, namespace included, side by side. Every sub-benchmark
// reports its allocations; the batch the benchmark builds for each round is
// among them — except in prebuilt, whose batches are built before the timer
// starts, so its B/task is admission's own: bench/'s bytes_per_task on
// rt_independent without the harness (go test -run '^$' -bench
// SubmitAll/prebuilt -benchtime 4000x .).
func BenchmarkSubmitAll(b *testing.B) {
	const batch = 256
	type depFn func(round, i int) starss.Dep
	pair := func(round, i int) starss.Dep { return starss.InOut([2]int{round, i}) }
	mkTasks := func(round int, dep depFn) []starss.Task {
		tasks := make([]starss.Task, batch)
		for i := range tasks {
			tasks[i] = starss.Task{
				Deps: []starss.Dep{dep(round, i)},
				Do:   func(context.Context) error { return nil },
			}
		}
		return tasks
	}
	b.Run("loop_submit", func(b *testing.B) {
		rt := starss.New(starss.Config{Workers: 4, Window: 1024})
		defer rt.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range mkTasks(i, pair) {
				if _, err := rt.Submit(ctx, t); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := rt.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tasks/s")
	})
	b.Run("submit_all", func(b *testing.B) {
		rt := starss.New(starss.Config{Workers: 4, Window: 1024})
		defer rt.Close()
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.SubmitAll(ctx, mkTasks(i, pair)); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tasks/s")
	})
	b.Run("prebuilt", func(b *testing.B) {
		const window = 1024
		rt := starss.New(starss.Config{Workers: 4, Window: window})
		defer rt.Close()
		ctx := context.Background()
		// Four windows of distinct addresses: by the time a round reuses an
		// address, the window has retired the task that used it before, so
		// no task waits.
		batches := make([][]starss.Task, 4*window/batch)
		for j := range batches {
			batches[j] = make([]starss.Task, batch)
			for i := range batches[j] {
				batches[j][i] = starss.Task{
					Deps: []starss.Dep{starss.Addr(uint64(j*batch+i)*64, starss.ModeInOut)},
					Do:   func(context.Context) error { return nil },
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.SubmitAll(ctx, batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.Wait(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*batch), "B/task")
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tasks/s")
	})
	names := make([]string, batch)
	for i := range names {
		names[i] = "block" + strconv.Itoa(i)
	}
	for _, tc := range []struct {
		name string
		dep  depFn
	}{
		{"scoped_addr", func(round, i int) starss.Dep { return starss.Addr(uint64(round*batch+i)*64, starss.ModeInOut) }},
		{"scoped_any", func(_, i int) starss.Dep { return starss.InOut(names[i]) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rt := starss.New(starss.Config{Workers: 4, Window: 1024})
			defer rt.Close()
			scope := rt.Scope("bench")
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scope.SubmitAll(ctx, mkTasks(i, tc.dep)); err != nil {
					b.Fatal(err)
				}
			}
			if err := rt.Wait(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tasks/s")
		})
	}
}

func BenchmarkRuntimeGaussian64(b *testing.B) {
	// End-to-end: the real runtime solving the Gaussian task graph shape.
	for i := 0; i < b.N; i++ {
		rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: 4})
		n := 64
		for col := 1; col < n; col++ {
			col := col
			rt.MustSubmit(nexuspp.Task{
				Deps: []nexuspp.Dep{nexuspp.InOut(col)},
				Do:   func(context.Context) error { return nil },
			})
			for row := col + 1; row <= n; row++ {
				row := row
				rt.MustSubmit(nexuspp.Task{
					Deps: []nexuspp.Dep{nexuspp.In(col), nexuspp.InOut(row)},
					Do:   func(context.Context) error { return nil },
				})
			}
		}
		if err := rt.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkWireCodec times the service's wire codec on the benchmark's two
// request bodies — a 64-task random-DAG batch (svc_closed) and an 8-task
// inout chain (svc_open) — through the encoding/json entry points, exactly
// as bench/'s wire.decode/encode/await_encode_ns_per_task probes do, and
// reports the same unit. encoding/json scans a document twice before it
// hands it to UnmarshalJSON and re-validates what MarshalJSON returns, so
// these are upper bounds on what the server and client pay: they call the
// codec directly (internal/service BenchmarkCodec).
func BenchmarkWireCodec(b *testing.B) {
	dag := make([]service.TaskSpec, 0, 64)
	src := workload.RandomDAG(workload.RandomDAGConfig{Tasks: 64, Seed: 42, BaseAddr: 0x3000_0000})
	for spec, ok := src.Next(); ok; spec, ok = src.Next() {
		spec.Exec = 0
		dag = append(dag, service.FromTraceSpec(spec))
	}
	chain := make([]service.TaskSpec, 8)
	for i := range chain {
		chain[i] = service.TaskSpec{Params: []service.Param{{Addr: 0x5000_0000, Size: 64, Mode: "inout"}}}
	}
	for _, tc := range []struct {
		name  string
		batch []service.TaskSpec
	}{{"dag64", dag}, {"chain8", chain}} {
		req := service.SubmitRequest{Tasks: tc.batch}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp := service.AwaitResponse{Done: true, Tasks: make([]service.TaskStatus, len(tc.batch))}
		for i := range resp.Tasks {
			resp.Tasks[i] = service.TaskStatus{ID: uint64(i), State: service.StateOK}
		}
		perTask := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tc.batch)), "ns/task")
		}
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var got service.SubmitRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil || len(got.Tasks) != len(tc.batch) {
					b.Fatalf("decode: %d tasks, %v", len(got.Tasks), err)
				}
			}
			perTask(b)
		})
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(req); err != nil {
					b.Fatal(err)
				}
			}
			perTask(b)
		})
		b.Run(tc.name+"/await_encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
			perTask(b)
		})
	}
}
