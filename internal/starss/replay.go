package starss

// This file is the bridge between the traced-workload world (internal/trace,
// internal/workload) and the executing runtime: it replays any workload.Source
// on a real Runtime by synthesizing task bodies from the trace's timing.
// For the first time the real runtime's schedules can be cross-validated
// against the dependency-graph oracle and the Nexus++ simulator on the
// paper's own workloads — the same trace drives every engine.

import (
	"context"
	"fmt"
	"time"

	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// ReplayOptions controls how traced timing maps onto synthesized bodies.
type ReplayOptions struct {
	// ZeroCost replaces every task body with an empty function, so a replay
	// measures pure dependency-resolution and scheduling throughput.
	ZeroCost bool
	// TimeScale divides every synthesized duration: 1 (or 0) replays the
	// trace's timing unscaled, 10 replays ten times faster. Ignored when
	// ZeroCost is set.
	TimeScale int
}

// ReplayResult reports one replay of a traced workload on a real runtime.
type ReplayResult struct {
	// Workload is the source's name.
	Workload string
	// Wall is the measured wall-clock time from the first admission until
	// the final barrier returned.
	Wall time.Duration
	// Stats covers this replay only: the counters are the difference of the
	// runtime's snapshots around the replay, so several replays sharing one
	// runtime each report their own counts. MaxInFlight is the runtime's
	// high-water mark, which cannot be attributed to one replay.
	Stats Stats
}

// statsDelta subtracts the monotonic counters of before from after. Like
// MaxInFlight, BankMaxQueue is a high-water mark and cannot be attributed
// to one replay, so the runtime's mark is reported as-is.
func statsDelta(before, after Stats) Stats {
	d := after
	d.Submitted -= before.Submitted
	d.Executed -= before.Executed
	d.Failed -= before.Failed
	d.Skipped -= before.Skipped
	d.Hazards -= before.Hazards
	d.BankAcquisitions -= before.BankAcquisitions
	d.BankContended -= before.BankContended
	return d
}

// durationOf converts a simulated time into wall-clock time.
func durationOf(t sim.Time) time.Duration {
	return time.Duration(t / sim.Nanosecond)
}

// TaskFromSpec synthesizes an executable Task from one traced task: the
// parameter list becomes the dependency list, base address and mode for
// base address and mode, and the body sleeps for the traced execution plus
// memory time (scaled by opts.TimeScale) or does nothing under ZeroCost.
func TaskFromSpec(spec trace.TaskSpec, opts ReplayOptions) Task {
	deps := make([]Dep, len(spec.Params))
	for i, p := range spec.Params {
		deps[i] = Dep{p.Addr, p.Mode}
	}
	// No Name: the runtime derives "task<index>" on demand, and the
	// submission index equals the trace ID under in-order replay; a
	// per-task Sprintf would tax the feeder inside the timed region of the
	// resolver-throughput experiments.
	var d time.Duration
	if !opts.ZeroCost {
		d = durationOf(spec.Exec+spec.MemRead+spec.MemWrite) / time.Duration(max(opts.TimeScale, 1))
	}
	return Task{Deps: deps, Do: SleepBody(d)}
}

// replayBatch is Replay's SubmitAll chunk size.
const replayBatch = 256

// Replay runs src to completion on rt: every traced task is admitted in
// submission order with its parameter list as dependencies and a body
// synthesized from its timing, then Replay waits for the final barrier. The
// runtime is left open (the caller owns its lifecycle), so several replays
// can share one runtime as long as their key spaces are disjoint or drained.
//
// Tasks are fed through SubmitAll in chunks of replayBatch. A chunk shares
// only its window reservation and its node and handle blocks: the banked
// runtime checks it task by task under each task's own banks, and on the
// single-maestro baseline every task still crosses to the resolver goroutine
// on its own — exactly the serialization it exists to measure.
func Replay(ctx context.Context, rt *Runtime, src workload.Source, opts ReplayOptions) (*ReplayResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	src.Reset()
	before := rt.Stats()
	start := time.Now()
	buf := make([]Task, 0, replayBatch)
	for {
		spec, more := src.Next()
		if more {
			buf = append(buf, TaskFromSpec(spec, opts))
		}
		if len(buf) == replayBatch || (!more && len(buf) > 0) {
			if _, err := rt.SubmitAll(ctx, buf); err != nil {
				return nil, fmt.Errorf("starss: replay %s: %w", src.Name(), err)
			}
			buf = buf[:0]
		}
		if !more {
			break
		}
	}
	if err := rt.Wait(ctx); err != nil {
		return nil, fmt.Errorf("starss: replay %s: %w", src.Name(), err)
	}
	return &ReplayResult{
		Workload: src.Name(),
		Wall:     time.Since(start),
		Stats:    statsDelta(before, rt.Stats()),
	}, nil
}
