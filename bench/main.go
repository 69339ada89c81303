// Command bench is the repository's benchmark: six workloads from an
// in-process SubmitAll to a loopback service socket, end-to-end metrics
// from an untraced run and per-layer metrics from a traced one, with every
// correctness gate a failed check away from failing the command. See
// README.md for the glossary and BENCHMARK.json for the contract.
//
//	go run -C bench nexuspp/bench --workload rt_wavefront --seed 42 --seconds 10 --trace 0
//	go run -C bench nexuspp/bench -out results.json            # all six, appends a run
//	go run -C bench nexuspp/bench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func allWorkloads() []workload {
	var ws []workload
	for _, s := range rtSpecs {
		ws = append(ws, s.workload())
	}
	return append(ws, closedWorkload(), openWorkload(), simWorkload())
}

func selectWorkloads(names string) ([]workload, error) {
	all := allWorkloads()
	if names == "" || names == "all" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.def.Name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	return out, nil
}

// The traced run splits its measuring time: an untraced stretch, then a
// traced one of the same workload in the same process — their ratio is the
// tracing overhead — and the probes take what is left.
const (
	tracedUntracedShare = 0.3
	tracedTracedShare   = 0.4
)

// runWorkload sets one workload up, measures it, verifies it and reduces
// the run to its metrics.
func runWorkload(w workload, e env, seconds float64, traced bool, outDir string) (*workloadResult, error) {
	res := &workloadResult{Name: w.def.Name, Seconds: seconds, PhaseWallS: map[string]float64{}}
	budget := time.Duration(seconds * float64(time.Second))

	var ref *hostRef
	if w.hostScaled {
		ref = newHostRef()
	}
	res.HostScaled = w.hostScaled
	start := time.Now()
	inst, setupS, err := setUp(w, e, ref)
	if err != nil {
		return nil, err
	}
	res.SetupS, res.TasksPerRepeat = setupS, inst.tasksPerRepeat()
	res.PhaseWallS["setup"] = time.Since(start).Seconds()
	fail := func(err error) (*workloadResult, error) {
		_ = inst.close() // the run's error is the one worth reporting
		return nil, fmt.Errorf("%s: %w", w.def.Name, err)
	}

	values := map[string]float64{}
	defs := endToEndDefs
	var ph *phase
	if !traced {
		if ph, err = measure(inst, nil, budget, ref); err != nil {
			return fail(err)
		}
		res.PhaseWallS["measure"] = ph.Wall.Seconds()
		values = endToEnd(setupS, ph)
	} else {
		res.Trace, defs = 1, perLayerDefs
		if ph, err = measure(inst, nil, time.Duration(tracedUntracedShare*float64(budget)), ref); err != nil {
			return fail(err)
		}
		res.PhaseWallS["measure"] = ph.Wall.Seconds()
		tr := newTracer()
		tph, err := measure(inst, tr, time.Duration(tracedTracedShare*float64(budget)), ref)
		if err != nil {
			return fail(err)
		}
		res.PhaseWallS["traced"] = tph.Wall.Seconds()
		res.TracedReps = tph.Reps
		start = time.Now()
		if values, err = inst.layers(tr, ph, tph); err != nil {
			return fail(err)
		}
		res.PhaseWallS["probes"] = time.Since(start).Seconds()
		values["obs.untraced_tasks_per_s"] = ph.tasksPerS()
		values["obs.traced_tasks_per_s"] = tph.tasksPerS()
		values["obs.overhead_ratio"] = tph.tasksPerS() / ph.tasksPerS()
		if ref != nil {
			values["host.speed"] = ph.hostSpeed()
			values["host.ref_us"] = refNominalUS / ph.hostSpeed()
		}
		res.TraceFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.def.Name, e.Seed))
		if err := writeChromeTrace(res.TraceFile, tr.snapshot()); err != nil {
			return fail(err)
		}
		res.Attempted, res.Failed = len(tph.OpLatUS), tph.Failed
	}
	res.Reps = ph.Reps
	res.HostSpeed, res.RawTasksPerS = ph.hostSpeed(), ph.rawTasksPerS()
	res.Attempted += len(ph.OpLatUS)
	res.Failed += ph.Failed
	res.OpSamples = len(ph.OpLatUS)
	q1, q2, q3 := quartiles(ph.OpLatUS)
	res.OpQuartilesUS = [3]float64{q1, q2, q3}

	start = time.Now()
	if err := inst.verify(); err != nil {
		return fail(err)
	}
	res.PhaseWallS["verify"] = time.Since(start).Seconds()
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.def.Name, err)
	}

	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, ok := findMetric(defs, name); !ok {
			return nil, fmt.Errorf("%s: metric %q is not in the benchmark's definitions", w.def.Name, name)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult lists every metric by name with its unit.
func printResult(res *workloadResult) {
	fmt.Printf("== %s (trace %d, %.3gs, %d repeats, %d operations, %d failed)\n",
		res.Name, res.Trace, res.Seconds, len(res.Reps), res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if res.Trace == 0 {
		tps := make([]float64, len(res.Reps))
		for i, r := range res.Reps {
			tps[i] = r.TasksPerS
		}
		q1, q2, q3 := quartiles(tps)
		fmt.Printf("  tasks_per_s over repeats: q1 %.6g  median %.6g  q3 %.6g\n", q1, q2, q3)
		if res.HostScaled {
			fmt.Printf("  times are host-scaled: host speed %.3f (1 = nominal), raw tasks_per_s %.6g\n", res.HostSpeed, res.RawTasksPerS)
		}
		fmt.Printf("  op latency (us), %d samples: q1 %.6g  median %.6g  q3 %.6g\n",
			res.OpSamples, res.OpQuartilesUS[0], res.OpQuartilesUS[1], res.OpQuartilesUS[2])
	} else {
		fmt.Printf("  spans: %s\n", res.TraceFile)
	}
}

func listMetrics() {
	fmt.Println("workloads:")
	for _, w := range workloadDefs {
		fmt.Printf("  %-16s %s\n", w.Name, w.Why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, d := range endToEndDefs {
		fmt.Printf("  %-36s %-6s %-6s bound %.0f%%  %s\n", d.Name, d.Unit, d.Better, 100*d.Bound, d.Help)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, d := range perLayerDefs {
		fmt.Printf("  %-36s %-6s %-6s %s\n", d.Name, d.Unit, d.Better, d.Help)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	fs.StringVar(names, "workloads", "all", "alias of -workload")
	seed := fs.Uint64("seed", 42, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
	quick := fs.Bool("quick", false, "tiny counts: runs every correctness gate in seconds, numbers mean nothing")
	out := fs.String("out", "", "append this run to a result file (for compare)")
	outDir := fs.String("outdir", "out", "directory for span files")
	list := fs.Bool("list", false, "print the workload and metric glossary and exit")
	contract := fs.Bool("benchmark-json", false, "print BENCHMARK.json as spec.go defines it and exit")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse does not return an error
	if *list {
		listMetrics()
		return
	}
	if *contract {
		fmt.Println(benchmarkJSON())
		return
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload names] [-seed n] [-seconds s] [-trace 0|1] [-quick] [-out file] | bench compare A.json B.json")
		os.Exit(2)
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		warnf("%v", err)
		os.Exit(2)
	}
	e := env{Seed: *seed, P: min(runtime.NumCPU(), 4), Quick: *quick}
	if e.Quick {
		*seconds = min(*seconds, 0.2)
	}
	var r run
	if *out != "" {
		// Provenance asks git about the checkout, so it is only gathered
		// when there is a result file to put it in.
		r.Provenance = collectProvenance(e)
	}
	correct := true
	var last *workloadResult
	for _, w := range ws {
		res, err := runWorkload(w, e, *seconds, *trace == 1, *outDir)
		if err != nil {
			warnf("%v", err)
			os.Exit(1)
		}
		printResult(res)
		correct = correct && res.Correct
		r.Workloads = append(r.Workloads, *res)
		last = res
	}
	if *out != "" {
		if err := appendRun(*out, r); err != nil {
			warnf("%v", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(contractLine{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics})
	if err != nil {
		warnf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}
