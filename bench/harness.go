package main

import (
	"fmt"
	"runtime"
	"time"
)

// env is what a workload's set-up receives. The program under test only
// ever sees inputs generated from Seed.
type env struct {
	Seed uint64
	// P is min(nproc, 4): runtime workers, load-generator goroutines,
	// connections and sessions are all sized by it.
	P int
	// Quick shrinks every count so the correctness gates of all six
	// workloads run in a few seconds; its numbers mean nothing.
	Quick bool
}

// repResult is what one repeat of a workload reports to the harness.
type repResult struct {
	// Tasks completed and the wall time they took.
	Tasks int
	Wall  time.Duration
	// OpLatUS holds one latency per operation, in microseconds.
	OpLatUS []float64
	// Failed counts operations that did not succeed.
	Failed int
}

// instance is one set-up workload. A repeat is a fixed amount of work (its
// size never adapts to the machine); the harness repeats it until the
// measuring time is used up and keeps every repeat.
type instance interface {
	// repeat runs one measured repeat; tr is nil on untraced repeats.
	repeat(tr *tracer) (repResult, error)
	// endRepeat releases what the repeat left live (sessions, say); the
	// harness calls it after it has measured the live heap.
	endRepeat() error
	// verify runs the workload's reduced-size correctness pass.
	verify() error
	// layers computes the workload's per-layer metrics after a traced run.
	layers(tr *tracer, untraced, traced *phase) (map[string]float64, error)
	// tasksPerRepeat is recorded as provenance.
	tasksPerRepeat() int
	close() error
}

// workload pairs a definition with the set-up that builds its instances.
type workload struct {
	def workloadDef
	// hostScaled marks a workload that keeps the CPUs saturated: its times
	// are scaled by the host-speed reference (hostref.go).
	hostScaled bool
	setup      func(e env) (instance, error)
}

// repSample is one repeat as the harness saw it, kept raw in result files.
// TasksPerS is host-scaled when the workload is; RawTasksPerS never is.
type repSample struct {
	Tasks        int     `json:"tasks"`
	WallS        float64 `json:"wall_s"`
	HostSpeed    float64 `json:"host_speed"`
	RawTasksPerS float64 `json:"raw_tasks_per_s"`
	TasksPerS    float64 `json:"tasks_per_s"`
	AllocsPerT   float64 `json:"allocs_per_task"`
	BytesPerT    float64 `json:"bytes_per_task"`
	LiveHeapMB   float64 `json:"live_heap_mb"`
	Ops          int     `json:"ops"`
	FailedOps    int     `json:"failed_ops"`
	GCsInRepeat  uint32  `json:"gcs_in_repeat"`
}

// phase is a run of back-to-back repeats, traced or not. OpLatUS pools the
// (host-scaled, when the workload is) operation latencies of all of them.
type phase struct {
	Reps    []repSample
	OpLatUS []float64
	Failed  int
	Wall    time.Duration
}

func (p *phase) column(f func(repSample) float64) []float64 {
	out := make([]float64, len(p.Reps))
	for i, r := range p.Reps {
		out[i] = f(r)
	}
	return out
}

func (p *phase) tasksPerS() float64 {
	return median(p.column(func(r repSample) float64 { return r.TasksPerS }))
}

func (p *phase) rawTasksPerS() float64 {
	return median(p.column(func(r repSample) float64 { return r.RawTasksPerS }))
}

func (p *phase) hostSpeed() float64 {
	return median(p.column(func(r repSample) float64 { return r.HostSpeed }))
}

// measure repeats inst until budget has passed (at least once), bracketing
// each repeat with allocation counters and following it with a forced GC
// so the live heap is read at the same point of every repeat and the next
// repeat starts from a collected heap. With a host reference, the kernel
// runs between repeats and each repeat's times are scaled by the host
// speed the two runs around it saw.
func measure(inst instance, tr *tracer, budget time.Duration, ref *hostRef) (*phase, error) {
	ph := &phase{}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	start := time.Now()
	refBefore := ref.measureUS()
	for len(ph.Reps) == 0 || time.Since(start) < budget {
		runtime.ReadMemStats(&m0)
		rep, err := inst.repeat(tr)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		runtime.GC()
		runtime.ReadMemStats(&m2)
		if err := inst.endRepeat(); err != nil {
			return nil, err
		}
		if rep.Tasks <= 0 || rep.Wall <= 0 {
			return nil, fmt.Errorf("repeat reported %d tasks in %v", rep.Tasks, rep.Wall)
		}
		refAfter := ref.measureUS()
		speed := hostSpeed(refBefore, refAfter)
		refBefore = refAfter
		t := float64(rep.Tasks)
		raw := t / rep.Wall.Seconds()
		ph.Reps = append(ph.Reps, repSample{
			Tasks:        rep.Tasks,
			WallS:        rep.Wall.Seconds(),
			HostSpeed:    speed,
			RawTasksPerS: raw,
			TasksPerS:    raw / speed,
			AllocsPerT:   float64(m1.Mallocs-m0.Mallocs) / t,
			BytesPerT:    float64(m1.TotalAlloc-m0.TotalAlloc) / t,
			LiveHeapMB:   float64(m2.HeapAlloc) / 1e6,
			Ops:          len(rep.OpLatUS),
			FailedOps:    rep.Failed,
			GCsInRepeat:  m1.NumGC - m0.NumGC,
		})
		for _, l := range rep.OpLatUS {
			ph.OpLatUS = append(ph.OpLatUS, l*speed)
		}
		ph.Failed += rep.Failed
	}
	ph.Wall = time.Since(start)
	return ph, nil
}

// setupRepeats is how many times one run sets the workload up; setup_s is
// the median, so one slow start (cold page cache, a GC) does not set it.
const setupRepeats = 3

// setUp builds the instance setupRepeats times, each followed by one
// discarded warm-up repeat, closes all but the last and returns it with
// every set-up time (host-scaled like any other time, given a reference).
func setUp(w workload, e env, ref *hostRef) (instance, []float64, error) {
	var times []float64
	var inst instance
	n := setupRepeats
	if e.Quick {
		n = 1
	}
	refBefore := ref.measureUS()
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("%s: close: %w", w.def.Name, err)
			}
		}
		start := time.Now()
		var err error
		inst, err = w.setup(e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.def.Name, err)
		}
		if _, err := inst.repeat(nil); err != nil {
			_ = inst.close() // the repeat's error is the one worth reporting
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.def.Name, err)
		}
		if err := inst.endRepeat(); err != nil {
			_ = inst.close()
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.def.Name, err)
		}
		raw := time.Since(start).Seconds()
		refAfter := ref.measureUS()
		times = append(times, raw*hostSpeed(refBefore, refAfter))
		refBefore = refAfter
	}
	return inst, times, nil
}

// endToEnd reduces an untraced phase to the end-to-end metrics.
func endToEnd(setupS []float64, ph *phase) map[string]float64 {
	lat := sortedCopy(ph.OpLatUS)
	return map[string]float64{
		"setup_s":         median(setupS),
		"tasks_per_s":     ph.tasksPerS(),
		"op_p50_us":       percentile(lat, 50),
		"op_p90_us":       percentile(lat, 90),
		"allocs_per_task": median(ph.column(func(r repSample) float64 { return r.AllocsPerT })),
		"bytes_per_task":  median(ph.column(func(r repSample) float64 { return r.BytesPerT })),
		"live_heap_mb":    median(ph.column(func(r repSample) float64 { return r.LiveHeapMB })),
	}
}
