// Command nexusbench drives every execution engine in this repository
// through the unified backend interface and regenerates the tables and
// figures of the Nexus++ paper's evaluation.
//
// Usage:
//
//	nexusbench run    [-backend=<name|all>] [-workload=<name>] [-workers=N] [flags]
//	nexusbench list
//	nexusbench golden [-check|-regen] [-dir=<path>] [-case=<name>]
//	nexusbench exp    [flags] [experiment...]
//	nexusbench serve  [-addr=<url>] [-clients=N] [-tasks=N]
//	nexusbench chaos  [-seed=N] [-scenarios=all] [-repeat=N] [-json=<path>]
//	nexusbench trace  [-workload=<name>] [-o=trace.json] [flags]
//
// `run` executes one workload on one backend — or on every registered
// backend with -backend=all — and prints one unified report row per engine:
// tasks executed, simulated makespan or measured wall time, and tasks/s.
// The executing runtimes replay the traced workload with synthesized task
// bodies (see -zerocost and -timescale).
//
// `list` enumerates the registered backends and workloads with their
// descriptions.
//
// `golden` maintains the conformance corpus: -check (the default) diffs
// every engine against the committed golden records, -regen rewrites them.
//
// `exp` regenerates the paper's tables and figures: table2, fig6, fig7,
// fig8, headline, ablation-buffering, ablation-dummies, ablation-ports,
// ablation-renaming, rts, nexus, cholesky, shards, all (default).
//
// `serve` is the service smoke: -clients concurrent clients drive a nexusd
// daemon (a running one via -addr, or an in-process loopback server) with
// -tasks overlapping-address tasks each, in fixed 64-task batches over 32
// shared addresses, and verify per-session accounting.
//
// `chaos` runs the seeded fault-injection scenarios of internal/chaos —
// task panics, hangs under deadlines, retry recovery, duplicated and
// dropped wire exchanges, session expiry mid-graph, overload shedding —
// verifying invariants after every run and determinism across repeats.
//
// `trace` replays one workload on the instrumented sharded runtime and
// writes its lifecycle event log as Chrome trace-viewer JSON for
// chrome://tracing / Perfetto timeline inspection.
//
// Unknown backend, workload, or experiment names fail with an error listing
// the valid names; a missing or unknown subcommand prints the usage and
// exits 2. (The repository's benchmark is the nested bench/ module.)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"nexuspp/internal/backend"
	"nexuspp/internal/core"
	"nexuspp/internal/experiments"
	"nexuspp/internal/report"
	"nexuspp/internal/softrts"
	"nexuspp/internal/starss"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "run":
		os.Exit(runCmd(args))
	case "list":
		os.Exit(listCmd(os.Stdout))
	case "golden":
		os.Exit(goldenCmd(args))
	case "exp":
		os.Exit(expCmd(args))
	case "serve":
		os.Exit(serveCmd(args))
	case "chaos":
		os.Exit(chaosCmd(args))
	case "trace":
		os.Exit(traceCmd(args))
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "nexusbench: unknown subcommand %q\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: nexusbench run [-backend=<name|all>] [-workload=<name>] [-workers=N] [flags]")
	fmt.Fprintln(w, "       nexusbench list")
	fmt.Fprintln(w, "       nexusbench golden [-check|-regen] [-dir=<path>] [-case=<name>]")
	fmt.Fprintln(w, "       nexusbench exp [flags] [experiment...]")
	fmt.Fprintln(w, "       nexusbench serve [-addr=<url>] [-clients=N] [-tasks=N]")
	fmt.Fprintln(w, "       nexusbench chaos [-seed=N] [-scenarios=all] [-repeat=N] [-json=<path>]")
	fmt.Fprintln(w, "       nexusbench trace [-workload=<name>] [-o=trace.json] [flags]")
	fmt.Fprintln(w, "run 'nexusbench list' for backends and workloads,")
	fmt.Fprintln(w, "    'nexusbench exp unknown' for the experiment names.")
}

// runCmd executes one workload on one or all backends through the unified
// interface and renders one report row per engine.
func runCmd(args []string) int {
	fs := flag.NewFlagSet("nexusbench run", flag.ExitOnError)
	var (
		backendName = fs.String("backend", "all", "backend name, or 'all' for every registered engine")
		workName    = fs.String("workload", "wavefront", "workload name (see 'nexusbench list')")
		workers     = fs.Int("workers", 8, "worker cores / goroutines")
		seed        = fs.Uint64("seed", 42, "trace generator seed")
		zerocost    = fs.Bool("zerocost", false, "executing runtimes: empty task bodies (pure resolver throughput)")
		timescale   = fs.Int("timescale", 1, "executing runtimes: divide synthesized body durations")
		csv         = fs.Bool("csv", false, "emit CSV instead of aligned text")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nexusbench run: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	wl, err := backend.LookupWorkload(*workName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench run: %v\n", err)
		return 2
	}
	var engines []backend.Backend
	if *backendName == "all" {
		engines = backend.All()
	} else {
		b, err := backend.Lookup(*backendName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexusbench run: %v\n", err)
			return 2
		}
		engines = []backend.Backend{b}
	}

	cfg := backend.Config{
		Workers:   *workers,
		ZeroCost:  *zerocost,
		TimeScale: *timescale,
	}
	t := report.NewTable(
		fmt.Sprintf("Unified run: workload %s, %d workers", wl.Name, *workers),
		"backend", "kind", "tasks", "makespan/wall", "tasks/s", "detail")
	exit := 0
	for _, b := range engines {
		rep, err := b.Run(context.Background(), cfg, wl.New(*seed))
		if err != nil {
			t.AddRow(b.Name(), "-", "-", "FAILS: "+trim(err.Error(), 48), "-", "-")
			// An engine rejecting a workload it cannot express (the original
			// Nexus's hard structure limits surface as a FatalModelError) is
			// a reportable outcome; anything else is a real failure.
			var fatal core.FatalModelError
			if !errors.As(err, &fatal) {
				exit = 1
			}
			continue
		}
		kind := "executing"
		if rep.Simulated {
			kind = "simulated"
		}
		t.AddRow(rep.Backend, kind, rep.TasksExecuted, rep.Span(),
			rep.Throughput(), detailOf(rep))
	}
	t.AddNote("simulated engines report simulated makespans; executing engines replay the trace with synthesized Go bodies and report wall time")
	if *zerocost {
		t.AddNote("zero-cost bodies: executing rows measure pure dependency-resolution and scheduling throughput")
	}
	if err := renderTable(os.Stdout, t, *csv); err != nil {
		fmt.Fprintf(os.Stderr, "nexusbench run: %v\n", err)
		return 1
	}
	return exit
}

// detailOf compresses the engine-specific typed detail into one report cell.
func detailOf(rep *backend.Report) string {
	switch d := rep.Detail.(type) {
	case *starss.ReplayResult:
		return fmt.Sprintf("hazards=%d max-in-flight=%d", d.Stats.Hazards, d.Stats.MaxInFlight)
	case *core.Result:
		return fmt.Sprintf("core-util=%.0f%% dummy-tds=%d", d.CoreUtilization*100, d.DummyTDs)
	case *softrts.Result:
		return fmt.Sprintf("core-util=%.0f%% master-util=%.0f%%", d.CoreUtilization*100, d.MasterUtilization*100)
	default:
		return ""
	}
}

// listCmd enumerates registered backends and workloads with descriptions.
func listCmd(w io.Writer) int {
	fmt.Fprintln(w, "Backends:")
	for _, b := range backend.All() {
		fmt.Fprintf(w, "  %-9s %s\n", b.Name(), b.Describe())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Workloads:")
	for _, wl := range backend.Workloads() {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name, wl.Description)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Experiments (nexusbench exp):")
	fmt.Fprintf(w, "  %s\n", strings.Join(experimentNames(), ", "))
	return 0
}

type driver struct {
	name string
	fn   func(experiments.Options) (*report.Table, error)
}

func drivers() []driver {
	return []driver{
		{"table2", func(o experiments.Options) (*report.Table, error) { return experiments.Table2(o), nil }},
		{"fig6", experiments.Fig6},
		{"fig7", experiments.Fig7},
		{"fig8", experiments.Fig8},
		{"headline", experiments.Headline},
		{"ablation-buffering", experiments.AblationBuffering},
		{"ablation-dummies", experiments.AblationDummies},
		{"ablation-ports", experiments.AblationPorts},
		{"ablation-renaming", experiments.AblationRenaming},
		{"rts", experiments.RTSComparison},
		{"nexus", experiments.NexusComparison},
		{"cholesky", experiments.Cholesky},
		{"shards", experiments.ShardScaling},
	}
}

func experimentNames() []string {
	var names []string
	for _, d := range drivers() {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// expCmd is the paper-evaluation experiment driver.
func expCmd(args []string) int {
	fs := flag.NewFlagSet("nexusbench exp", flag.ExitOnError)
	var (
		full     = fs.Bool("full", false, "run paper-scale operating points (fig8 to n=5000: about 4.5 min on a 2.1 GHz core)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		chart    = fs.Bool("chart", false, "also render figure experiments as text charts")
		seed     = fs.Uint64("seed", 42, "trace generator seed")
		progress = fs.Bool("progress", false, "log each simulation run to stderr")
	)
	fs.Parse(args)

	opts := experiments.Options{Full: *full, Seed: *seed}
	if *progress {
		opts.Progress = os.Stderr
	}

	all := drivers()
	want := fs.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, d := range all {
			want = append(want, d.name)
		}
	}
	byName := make(map[string]driver, len(all))
	for _, d := range all {
		byName[d.name] = d
	}

	exit := 0
	printed := false
	for _, name := range want {
		d, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "nexusbench: unknown experiment %q (valid: %s)\n",
				name, strings.Join(experimentNames(), ", "))
			exit = 2
			continue
		}
		tbl, err := d.fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nexusbench: %s: %v\n", name, err)
			exit = 1
			continue
		}
		if printed {
			fmt.Println()
		}
		printed = true
		if err := renderTable(os.Stdout, tbl, *csv); err != nil {
			fmt.Fprintf(os.Stderr, "nexusbench: %s: %v\n", name, err)
			exit = 1
		}
		if *chart && len(tbl.Series) > 0 {
			fmt.Println()
			fmt.Print(report.Chart(tbl.Title+" (chart)", 64, 16, tbl.Series...))
		}
	}
	return exit
}

func renderTable(w io.Writer, t *report.Table, csv bool) error {
	if csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
