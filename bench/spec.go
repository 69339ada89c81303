package main

import "encoding/json"

// The benchmark's contract: workload names, metric names, units, directions
// and bounds. BENCHMARK.json at the repository root carries the same
// definitions (TestBenchmarkJSONMatchesSpec keeps the two in step); later
// issues refer to these names, so renaming one is a benchmark change.

// metricDef describes one reported metric.
type metricDef struct {
	Name string
	Unit string
	// Better is "higher" or "lower".
	Better string
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before compare calls it a regression; 0 for
	// per-layer metrics, which carry no bound.
	Bound float64
	// Help is the glossary line printed by -list and in README.md.
	Help string
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"rt_independent", "in-process starss, dependency-free zero-cost tasks: admission, bank lock, ready hand-off, executor and handle completion do all the work"},
	{"rt_wavefront", "in-process starss, wavefront grid (paper Fig. 4a) where almost every task waits: kick-off lists, resolveFinished and dependent wake-up dominate"},
	{"rt_grain", "in-process starss, starpu_deps grid with 50us busy-spin bodies: bodies dominate, so hot-path diets predict no change and load-balance regressions show"},
	{"svc_closed", "closed loop through a loopback http.Server: P sessions submit 64-task random-DAG batches and await them; JSON, session and scope layers dominate"},
	{"svc_open", "open loop at 1000 req/s through the same socket: 8-task inout chains on 16 sessions, latency from due time; fixed per-request cost sets the latency"},
	{"sim_gaussian", "core.Run of the Nexus++ simulator on Gaussian n=250 (Table II): host speed of sim/core/mem, bypasses starss and service entirely"},
}

// endToEndDefs are reported by every workload with --trace 0. An operation
// (op) is the workload's unit of work as its caller sees it: one whole
// graph from the first SubmitAll to Wait's return (rt_*), one submit+await
// request (svc_*), one core.Run (sim_gaussian). On the four workloads that
// saturate the CPUs (rt_independent, rt_wavefront, svc_closed, sim_gaussian)
// the four timing metrics are host-scaled: see hostref.go.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median time of one set-up: generate inputs from the seed, start the runtime or server, one discarded warm-up repeat (host-scaled where the workload is)"},
	{"tasks_per_s", "1/s", "higher", 0.18, "tasks completed per second of host time, median over repeats (simulated tasks for sim_gaussian; fixed by the offered rate on svc_open; host-scaled where the workload is)"},
	{"op_p50_us", "us", "lower", 0.20, "median latency of one operation, pooled over all measured repeats (svc_open: from the request's due time; host-scaled where the workload is)"},
	{"op_p90_us", "us", "lower", 0.24, "90th percentile (nearest rank) of the same operation latencies"},
	{"allocs_per_task", "count", "lower", 0.03, "heap allocations per task over the measured window, whole process (runtime.MemStats.Mallocs delta), median over repeats"},
	{"bytes_per_task", "B", "lower", 0.03, "heap bytes allocated per task (TotalAlloc delta), median over repeats"},
	{"live_heap_mb", "MB", "lower", 0.15, "live heap (HeapAlloc) after a forced GC at the end of a repeat, before teardown, median over repeats; includes the pre-built inputs"},
}

// perLayerDefs are reported by every workload with --trace 1. A metric
// reads 0 on a workload whose path does not cross that layer.
var perLayerDefs = []metricDef{
	{Name: "host.speed", Unit: "ratio", Better: "higher", Help: "host-scaled workloads: median host speed over the untraced repeats (nominal reference time / measured; 1 = nominal)"},
	{Name: "host.ref_us", Unit: "us", Better: "lower", Help: "host-scaled workloads: the reference kernel's time behind host.speed"},
	{Name: "workload.gen_ns_per_task", Unit: "ns", Better: "lower", Help: "input generation (trace -> tasks or wire specs) per task; moves setup_s only"},

	{Name: "starss.submit_ns_per_task", Unit: "ns", Better: "lower", Help: "wall inside SubmitAll / tasks, traced repeats (rt_*)"},
	{Name: "starss.drain_ms", Unit: "ms", Better: "lower", Help: "last SubmitAll return -> Wait return, median over traced repeats (rt_*)"},
	{Name: "starss.hazard_ratio", Unit: "ratio", Better: "lower", Help: "Stats.Hazards / Submitted: share of tasks that waited at least once"},
	{Name: "starss.max_in_flight", Unit: "count", Better: "lower", Help: "Stats.MaxInFlight high-water mark"},
	{Name: "starss.bank_acquisitions_per_task", Unit: "count", Better: "lower", Help: "bank lock acquisitions per task (BankCounters on)"},
	{Name: "starss.bank_contended_ratio", Unit: "ratio", Better: "lower", Help: "contended / total bank acquisitions"},
	{Name: "starss.bank_max_queue", Unit: "count", Better: "lower", Help: "deepest kick-off list seen on any bank"},
	{Name: "starss.submit_ns_k1", Unit: "ns", Better: "lower", Help: "probe: one Submit call, task with 1 distinct key"},
	{Name: "starss.submit_ns_k2", Unit: "ns", Better: "lower", Help: "probe: one Submit call, 2 keys"},
	{Name: "starss.submit_ns_k4", Unit: "ns", Better: "lower", Help: "probe: one Submit call, 4 keys"},
	{Name: "starss.submit_ns_k8", Unit: "ns", Better: "lower", Help: "probe: one Submit call, 8 keys"},
	{Name: "starss.dispatch_us_p50", Unit: "us", Better: "lower", Help: "probe: Submit start -> body start on an idle runtime"},
	{Name: "starss.dispatch_us_p99", Unit: "us", Better: "lower", Help: "probe: same, 99th percentile"},
	{Name: "starss.release_us_p50", Unit: "us", Better: "lower", Help: "probe: predecessor body end -> successor body start"},
	{Name: "starss.release_us_p99", Unit: "us", Better: "lower", Help: "probe: same, 99th percentile"},
	{Name: "starss.wake_us_p50", Unit: "us", Better: "lower", Help: "probe: body end -> Handle.Wait return"},
	{Name: "starss.wake_us_p99", Unit: "us", Better: "lower", Help: "probe: same, 99th percentile"},
	{Name: "starss.scope_ns_per_task", Unit: "ns", Better: "lower", Help: "probe: Scope.SubmitAll minus Runtime.SubmitAll on the same batches"},
	{Name: "starss.vs_maestro", Unit: "ratio", Better: "higher", Help: "sharded tasks_per_s / maestro.tasks_per_s (base = maestro), same graph, same run"},
	{Name: "maestro.tasks_per_s", Unit: "1/s", Better: "higher", Help: "untraced: retained single-maestro baseline on this workload's graph, median of 3 (rt_independent, rt_wavefront)"},

	{Name: "obs.ready_to_run_us_p50", Unit: "us", Better: "lower", Help: "event stream: ready -> run, traced repeats (rt_*)"},
	{Name: "obs.ready_to_run_us_p99", Unit: "us", Better: "lower", Help: "event stream: same, 99th percentile"},
	{Name: "obs.run_to_finish_us_p50", Unit: "us", Better: "lower", Help: "event stream: run -> finish (body time as the runtime sees it)"},
	{Name: "obs.submit_to_finish_us_p50", Unit: "us", Better: "lower", Help: "event stream: submit -> finish"},
	{Name: "obs.submit_to_finish_us_p99", Unit: "us", Better: "lower", Help: "event stream: same, 99th percentile"},
	{Name: "obs.dropped_events", Unit: "count", Better: "lower", Help: "events overwritten before a drain saw them (0 = rings sized right)"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "higher", Help: "traced / untraced tasks_per_s inside the same process (1 = tracing is free)"},
	{Name: "obs.untraced_tasks_per_s", Unit: "1/s", Better: "higher", Help: "the untraced side of overhead_ratio"},
	{Name: "obs.traced_tasks_per_s", Unit: "1/s", Better: "higher", Help: "the traced side of overhead_ratio"},

	{Name: "wire.decode_ns_per_task", Unit: "ns", Better: "lower", Help: "probe: json decode of the workload's exact SubmitRequest body / tasks (svc_*)"},
	{Name: "wire.encode_ns_per_task", Unit: "ns", Better: "lower", Help: "probe: json encode of the same SubmitRequest / tasks"},
	{Name: "wire.await_encode_ns_per_task", Unit: "ns", Better: "lower", Help: "probe: json encode of the matching AwaitResponse / tasks"},
	{Name: "wire.bytes_per_task", Unit: "count", Better: "lower", Help: "submit request body bytes / tasks"},

	{Name: "service.submit_handler_ns_per_task", Unit: "ns", Better: "lower", Help: "probe: submit through Server.Handler().ServeHTTP with an in-memory recorder / tasks"},
	{Name: "service.handler_span_ns_per_task", Unit: "ns", Better: "lower", Help: "socket path: middleware span around the submit handler / tasks (second view of the line above)"},
	{Name: "service.await_handler_us_p50", Unit: "us", Better: "lower", Help: "probe: await handler through ServeHTTP, tasks already done"},
	{Name: "service.session_ns_per_task", Unit: "ns", Better: "lower", Help: "handler self time: submit handler - wire.decode - Scope.SubmitAll on the same batch"},
	{Name: "service.open_session_us", Unit: "us", Better: "lower", Help: "probe: POST /v1/sessions through ServeHTTP"},
	{Name: "service.rejected_429_ratio", Unit: "ratio", Better: "lower", Help: "429 responses / requests on the socket path"},
	{Name: "service.shed_503_ratio", Unit: "ratio", Better: "lower", Help: "503 responses / requests on the socket path"},

	{Name: "client.submit_rtt_us_p50", Unit: "us", Better: "lower", Help: "RoundTripper span of POST .../submit"},
	{Name: "client.submit_rtt_us_p99", Unit: "us", Better: "lower", Help: "same, 99th percentile"},
	{Name: "client.await_rtt_us_p50", Unit: "us", Better: "lower", Help: "RoundTripper span of POST .../await"},
	{Name: "client.await_rtt_us_p99", Unit: "us", Better: "lower", Help: "same, 99th percentile"},
	{Name: "client.transport_us_per_req", Unit: "us", Better: "lower", Help: "round trip - handler span, summed over a request's two calls, mean"},
	{Name: "client.self_us_per_req", Unit: "us", Better: "lower", Help: "client span - round trip (JSON encode/decode in client.go), per request, mean"},
	{Name: "client.req_p99_us", Unit: "us", Better: "lower", Help: "request latency, 99th percentile: diagnostic, swings with host stalls"},
	{Name: "client.req_p999_us", Unit: "us", Better: "lower", Help: "request latency, 99.9th percentile (0 when fewer than 10 samples lie beyond it)"},
	{Name: "client.req_max_us", Unit: "us", Better: "lower", Help: "slowest request"},

	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower", Help: "svc_open: how late the generator started a request, 99th percentile"},
	{Name: "loadgen.late_max_us", Unit: "us", Better: "lower", Help: "svc_open: worst generator lateness"},
	{Name: "loadgen.achieved_rate", Unit: "1/s", Better: "higher", Help: "svc_open: completed requests / window over the traced repeats; well below the offered 1000 the generator fell behind and the latencies carry its backlog"},
	{Name: "loadgen.efficiency", Unit: "ratio", Better: "higher", Help: "rt_grain: ideal (tasks x 50us / workers) / wall"},

	{Name: "core.makespan_ns", Unit: "ns", Better: "lower", Help: "simulated: Nexus++ makespan (must repeat exactly)"},
	{Name: "core.core_utilization", Unit: "ratio", Better: "higher", Help: "simulated: worker-core utilisation"},
	{Name: "core.max_tp_occupancy", Unit: "count", Better: "lower", Help: "simulated: Task Pool high-water mark"},
	{Name: "core.max_dt_occupancy", Unit: "count", Better: "lower", Help: "simulated: Dependence Table high-water mark"},
	{Name: "core.dt_full_stalls", Unit: "count", Better: "lower", Help: "simulated: stalls on a full Dependence Table"},
	{Name: "core.dummy_tds", Unit: "count", Better: "lower", Help: "simulated: dummy task descriptors chained"},
	{Name: "core.host_ns_per_event", Unit: "ns", Better: "lower", Help: "host time of core.Run / simulation events"},
	{Name: "core.speedup_vs_softrts", Unit: "ratio", Better: "higher", Help: "simulated: softrts makespan / core makespan (base = softrts)"},
	{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower", Help: "probe: bare sim.Engine self-rescheduling event"},
	{Name: "softrts.host_ns_per_task", Unit: "ns", Better: "lower", Help: "host time of softrts.Run / tasks"},
	{Name: "softrts.makespan_ns", Unit: "ns", Better: "lower", Help: "simulated: software-RTS makespan"},
	{Name: "depgraph.build_ns_per_task", Unit: "ns", Better: "lower", Help: "host time of depgraph.Build / tasks"},
}

// The command and run length BENCHMARK.json states. -C makes the nested
// module's directory the working directory, so span files land in
// bench/out/.
var benchCommand = []string{"go", "run", "-C", "bench", "nexuspp/bench"}

const runSeconds = 15

// benchmarkJSON renders the contract file from the definitions above, so
// the file at the repository root is generated, never hand-edited.
func benchmarkJSON() string {
	type jw struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []jw     `json:"workloads"`
		EndToEnd   []jm     `json:"end_to_end"`
		PerLayer   []jm     `json:"per_layer"`
	}{Command: benchCommand, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, jw(w))
	}
	for _, d := range endToEndDefs {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, jm{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, jm{d.Name, d.Unit, d.Better, nil})
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from string and number literals
	}
	return string(buf)
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
