package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/obs"
	"nexuspp/internal/sim"
	"nexuspp/internal/starss"
	iw "nexuspp/internal/workload"
)

// The three in-process workloads drive starss.Runtime directly: one
// submitter goroutine feeds pre-built tasks through SubmitAll in batches of
// rtBatch, then waits for the barrier. One repeat is one whole graph on a
// long-lived runtime.
const (
	rtBatch  = 256
	rtWindow = 4096
	// grainSpin is the body of rt_grain: long enough that bodies are ~97%
	// of the work, short enough that a lazy worker wake-up still shows.
	grainSpin = 50 * time.Microsecond
	// bodySampleEvery is the share of task bodies the traced run spans.
	bodySampleEvery = 64
	// obsSampleCap bounds the per-task stage latencies kept from the event
	// stream: a few repeats' worth fixes the percentiles, and a traced run
	// that hoards more grows its own heap and flatters its own GC pacing.
	obsSampleCap = 500_000
)

// rtSpec describes one in-process workload.
type rtSpec struct {
	def workloadDef
	// source builds the traced graph; small is the reduced-size graph the
	// schedule verification runs.
	source func(e env) iw.Source
	small  func(e env) iw.Source
	// spin is the body's busy time; zero selects the empty body.
	spin time.Duration
	// maestro adds the single-maestro baseline to the traced run.
	maestro bool
}

// seedBase shifts a generator's address space by the seed, so different
// seeds hash to different banks while the graph's shape — which these
// generators fix — stays the same.
func seedBase(base uint64, seed uint64) uint64 { return base + (seed%1024)*(1<<20) }

func gridSource(p iw.Pattern, rows, cols int) func(e env) iw.Source {
	return func(e env) iw.Source {
		if e.Quick {
			rows, cols = 24, 25
		}
		return iw.Grid(iw.GridConfig{Pattern: p, Rows: rows, Cols: cols, Seed: e.Seed, BaseAddr: seedBase(0x1000_0000, e.Seed)})
	}
}

func starpuSource(rows, cols int) func(e env) iw.Source {
	return func(e env) iw.Source {
		if e.Quick {
			cols = 8
		}
		return iw.StarPUDeps(iw.StarPUDepsConfig{Rows: rows, Cols: cols, Edges: 3, BaseAddr: seedBase(0x2000_0000, e.Seed)})
	}
}

var rtSpecs = []rtSpec{
	{
		def:     workloadDefs[0],
		source:  gridSource(iw.PatternIndependent, 300, 340),
		small:   gridSource(iw.PatternIndependent, 40, 50),
		maestro: true,
	},
	{
		def:     workloadDefs[1],
		source:  gridSource(iw.PatternWavefront, 300, 340),
		small:   gridSource(iw.PatternWavefront, 40, 50),
		maestro: true,
	},
	{
		def:    workloadDefs[2],
		source: starpuSource(32, 256),
		small:  starpuSource(32, 16),
		spin:   grainSpin,
	},
}

// spinFor busy-waits for d on the calling goroutine: a task body with a
// known cost that keeps its core, unlike a sleep.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// rtBody returns the one body every task of a workload shares, so the
// measured window allocates no closures.
func rtBody(spin time.Duration) func(context.Context) error {
	if spin <= 0 {
		return nopBody
	}
	return func(context.Context) error { spinFor(spin); return nil }
}

// buildTasks turns a traced source into runtime tasks (key boxing
// included) that all run body, except that wrap — when set — replaces the
// body of task i.
func buildTasks(src iw.Source, body func(context.Context) error, wrap func(i int) func(context.Context) error) []starss.Task {
	tr := iw.Collect(src)
	tasks := make([]starss.Task, len(tr.Tasks))
	for i, spec := range tr.Tasks {
		t := starss.TaskFromSpec(spec, starss.ReplayOptions{ZeroCost: true})
		t.Do = body
		if wrap != nil {
			if w := wrap(i); w != nil {
				t.Do = w
			}
		}
		tasks[i] = t
	}
	return tasks
}

func batchesOf(tasks []starss.Task, n int) [][]starss.Task {
	var out [][]starss.Task
	for len(tasks) > 0 {
		k := min(n, len(tasks))
		out = append(out, tasks[:k])
		tasks = tasks[k:]
	}
	return out
}

type rtInstance struct {
	spec  rtSpec
	e     env
	genNS float64
	body  func(context.Context) error

	tasks   []starss.Task
	batches [][]starss.Task
	rt      *starss.Runtime

	// Traced-run state, built on the first traced repeat: a second runtime
	// with the event stream and bank counters on, and a task list whose
	// sampled bodies record spans.
	tracedRT      *starss.Runtime
	tracedBatches [][]starss.Task
	repSpan       atomic.Int32
	repSeq        uint64
	submitNS      []float64 // per traced repeat: wall inside SubmitAll
	drainMS       []float64
	readyToRun    []float64 // us, pooled over traced repeats
	runToFinish   []float64
	submitToFin   []float64
	tracedBefore  starss.Stats
}

func (s rtSpec) workload() workload {
	// Empty bodies keep every CPU in runtime code; spinning bodies pin the
	// wall time to the clock.
	return workload{def: s.def, hostScaled: s.spin == 0, setup: func(e env) (instance, error) {
		start := time.Now()
		inst := &rtInstance{spec: s, e: e, body: rtBody(s.spin)}
		inst.tasks = buildTasks(s.source(e), inst.body, nil)
		inst.batches = batchesOf(inst.tasks, rtBatch)
		inst.genNS = float64(time.Since(start).Nanoseconds()) / float64(len(inst.tasks))
		inst.rt = starss.New(starss.Config{Workers: e.P, Window: rtWindow})
		return inst, nil
	}}
}

func (r *rtInstance) tasksPerRepeat() int { return len(r.tasks) }

func (r *rtInstance) endRepeat() error { return nil }

func (r *rtInstance) close() error {
	err := r.rt.Close()
	if r.tracedRT != nil {
		err = errors.Join(err, r.tracedRT.Close())
	}
	return err
}

// runGraph submits batches on rt and waits for the barrier: one operation,
// from the first SubmitAll call to Wait's return.
func runGraph(ctx context.Context, rt *starss.Runtime, batches [][]starss.Task, tr *tracer, parent int32, req uint64) (rep repResult, submitNS, drainNS int64, err error) {
	before := rt.Stats()
	start := time.Now()
	tasks := 0
	var subErr error
	var last *starss.Handle
	for _, b := range batches {
		t0 := time.Now()
		id := tr.begin("starss.submitall", parent, req, 0)
		hs, serr := rt.SubmitAll(ctx, b)
		tr.end(id)
		submitNS += time.Since(t0).Nanoseconds()
		if serr != nil {
			subErr = fmt.Errorf("SubmitAll: %w", serr)
			break
		}
		tasks += len(hs)
		last = hs[len(hs)-1]
	}
	lastSubmit := time.Now()
	id := tr.begin("starss.wait", parent, req, 0)
	werr := rt.Wait(ctx)
	tr.end(id)
	end := time.Now()
	if subErr != nil {
		return repResult{}, 0, 0, subErr
	}
	if werr != nil {
		return repResult{}, 0, 0, fmt.Errorf("Wait: %w", werr)
	}
	// Every repeat passes the runtime's own accounting before its numbers
	// count: all tasks executed, none failed or skipped.
	after := rt.Stats()
	if got := after.Executed - before.Executed; got != uint64(tasks) || after.Failed != before.Failed || after.Skipped != before.Skipped {
		return repResult{}, 0, 0, fmt.Errorf("runtime accounting: executed %d of %d, failed %d, skipped %d",
			got, tasks, after.Failed-before.Failed, after.Skipped-before.Skipped)
	}
	// Behind the barrier the last handle is done; its error is the one a
	// caller holding handles would see.
	if herr := last.Err(); herr != nil {
		return repResult{}, 0, 0, fmt.Errorf("last task: %w", herr)
	}
	wall := end.Sub(start)
	rep = repResult{Tasks: tasks, Wall: wall, OpLatUS: []float64{float64(wall.Nanoseconds()) / 1e3}}
	return rep, submitNS, end.Sub(lastSubmit).Nanoseconds(), nil
}

func (r *rtInstance) repeat(tr *tracer) (repResult, error) {
	ctx := context.Background()
	if tr == nil {
		rep, _, _, err := runGraph(ctx, r.rt, r.batches, nil, noSpan, 0)
		return rep, err
	}
	r.startTraced(tr)
	r.repSeq++
	repID := tr.begin("rep", noSpan, r.repSeq, 0)
	r.repSpan.Store(repID)
	firstTask := r.tracedRT.Stats().Submitted
	rep, submitNS, drainNS, err := runGraph(ctx, r.tracedRT, r.tracedBatches, tr, repID, r.repSeq)
	tr.end(repID)
	if err != nil {
		return repResult{}, err
	}
	r.submitNS = append(r.submitNS, float64(submitNS)/float64(rep.Tasks))
	r.drainMS = append(r.drainMS, float64(drainNS)/1e6)
	r.foldEvents(r.tracedRT.Events().Drain(), firstTask, rep.Tasks)
	return rep, nil
}

// startTraced builds the traced runtime and task list once.
func (r *rtInstance) startTraced(tr *tracer) {
	if r.tracedRT != nil {
		return
	}
	n := len(r.tasks)
	wrap := func(i int) func(context.Context) error {
		if i%bodySampleEvery != 0 {
			return nil
		}
		return func(ctx context.Context) error {
			start := tr.now()
			err := r.body(ctx)
			tr.add(span{Name: "task.body", Start: start, End: tr.now(), Parent: r.repSpan.Load(), Req: uint64(i), Lane: 1 + (i/bodySampleEvery)%r.e.P})
			return err
		}
	}
	r.tracedBatches = batchesOf(buildTasks(r.spec.source(r.e), r.body, wrap), rtBatch)
	// A task emits at most five events (submit, ready, run, finish and the
	// ready of a successor on the finisher's lane); sizing every lane for a
	// whole repeat means a drain per repeat drops nothing.
	r.tracedRT = starss.New(starss.Config{Workers: r.e.P, Window: rtWindow, EventBuffer: 4 * n, BankCounters: true})
	r.tracedBefore = r.tracedRT.Stats()
}

// foldEvents turns one repeat's lifecycle events into per-task stage
// latencies. Task ids are the runtime's submission indexes, so the repeat
// owns [first, first+n).
func (r *rtInstance) foldEvents(events []obs.Event, first uint64, n int) {
	if len(r.readyToRun) >= obsSampleCap {
		return
	}
	type stamps struct{ submit, ready, run, finish int64 }
	ts := make([]stamps, n)
	for _, ev := range events {
		if ev.Task < first || ev.Task >= first+uint64(n) {
			continue
		}
		s := &ts[ev.Task-first]
		switch ev.Kind {
		case obs.KindSubmit:
			s.submit = ev.TS
		case obs.KindReady:
			s.ready = ev.TS
		case obs.KindRun:
			s.run = ev.TS
		case obs.KindFinish:
			s.finish = ev.TS
		}
	}
	for _, s := range ts {
		if s.submit == 0 || s.ready == 0 || s.run == 0 || s.finish == 0 {
			continue // an event was dropped; obs.dropped_events reports it
		}
		r.readyToRun = append(r.readyToRun, float64(s.run-s.ready)/1e3)
		r.runToFinish = append(r.runToFinish, float64(s.finish-s.run)/1e3)
		r.submitToFin = append(r.submitToFin, float64(s.finish-s.submit)/1e3)
	}
}

// verify replays the reduced-size graph with bodies that record when they
// ran and checks the schedule against the dependency-graph oracle.
func (r *rtInstance) verify() error {
	src := r.spec.small(r.e)
	g := depgraph.Build(src)
	n := g.NumTasks()
	ivs := make([]depgraph.Interval, n)
	base := time.Now()
	// Each body writes only its own interval; the runtime's barrier orders
	// those writes before the read below. Times are offset by one so a body
	// that ran in the clock's first tick does not read as "never ran".
	wrap := func(i int) func(context.Context) error {
		return func(ctx context.Context) error {
			ivs[i].Start = sim.Time(time.Since(base)) + 1
			err := r.body(ctx)
			ivs[i].End = sim.Time(time.Since(base)) + 1
			return err
		}
	}
	tasks := buildTasks(src, r.body, wrap)
	rt := starss.New(starss.Config{Workers: r.e.P, Window: rtWindow})
	_, _, _, err := runGraph(context.Background(), rt, batchesOf(tasks, rtBatch), nil, noSpan, 0)
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: verification run: %w", r.spec.def.Name, err)
	}
	if err := g.ValidateSchedule(ivs); err != nil {
		return fmt.Errorf("%s: schedule breaks the dependency oracle: %w", r.spec.def.Name, err)
	}
	return nil
}

func (r *rtInstance) layers(_ *tracer, untraced, traced *phase) (map[string]float64, error) {
	m := map[string]float64{
		"workload.gen_ns_per_task":  r.genNS,
		"starss.submit_ns_per_task": median(r.submitNS),
		"starss.drain_ms":           median(r.drainMS),
		"obs.dropped_events":        float64(r.tracedRT.Events().Dropped()),
	}
	st := r.tracedRT.Stats()
	submitted := float64(st.Submitted - r.tracedBefore.Submitted)
	m["starss.hazard_ratio"] = float64(st.Hazards-r.tracedBefore.Hazards) / submitted
	m["starss.max_in_flight"] = float64(st.MaxInFlight)
	m["starss.bank_acquisitions_per_task"] = float64(st.BankAcquisitions) / submitted
	if st.BankAcquisitions > 0 {
		m["starss.bank_contended_ratio"] = float64(st.BankContended) / float64(st.BankAcquisitions)
	}
	m["starss.bank_max_queue"] = float64(st.BankMaxQueue)

	rr, rf, sf := sortedCopy(r.readyToRun), sortedCopy(r.runToFinish), sortedCopy(r.submitToFin)
	m["obs.ready_to_run_us_p50"] = percentile(rr, 50)
	m["obs.ready_to_run_us_p99"] = percentile(rr, 99)
	m["obs.run_to_finish_us_p50"] = percentile(rf, 50)
	m["obs.submit_to_finish_us_p50"] = percentile(sf, 50)
	m["obs.submit_to_finish_us_p99"] = percentile(sf, 99)

	if r.spec.spin > 0 {
		ideal := r.spec.spin.Seconds() / float64(r.e.P) // per task
		m["loadgen.efficiency"] = ideal * untraced.rawTasksPerS()
	}
	if r.spec.maestro {
		mt, err := r.maestroTasksPerS()
		if err != nil {
			return nil, err
		}
		m["maestro.tasks_per_s"] = mt
		m["starss.vs_maestro"] = untraced.rawTasksPerS() / mt
	}
	if err := starssProbes(r.e, m); err != nil {
		return nil, err
	}
	return m, nil
}

// maestroTasksPerS runs this workload's graph on the retained
// single-maestro runtime, untraced, and returns the median of three
// repeats. The maestro has no batch admission: one Submit per task is the
// serialisation it exists to measure.
func (r *rtInstance) maestroTasksPerS() (float64, error) {
	ctx := context.Background()
	rt := starss.NewMaestro(starss.Config{Workers: r.e.P, Window: rtWindow})
	var rates []float64
	var runErr error
	for rep := 0; rep < 3 && runErr == nil; rep++ {
		start := time.Now()
		for _, t := range r.tasks {
			h, err := rt.Submit(ctx, t)
			if err != nil {
				runErr = fmt.Errorf("maestro Submit: %w", err)
				break
			}
			_ = h.Err() // completion is checked through Wait and Stats below
		}
		if err := rt.Wait(ctx); err != nil && runErr == nil {
			runErr = fmt.Errorf("maestro Wait: %w", err)
		}
		rates = append(rates, float64(len(r.tasks))/time.Since(start).Seconds())
	}
	st := rt.Stats()
	if err := rt.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("maestro Close: %w", err)
	}
	if runErr != nil {
		return 0, runErr
	}
	if st.Executed != uint64(3*len(r.tasks)) || st.Failed != 0 || st.Skipped != 0 {
		return 0, fmt.Errorf("maestro accounting: %v", st)
	}
	return median(rates), nil
}
