// Package backend unifies every execution engine in this repository — the
// Nexus++ simulator, the original-Nexus simulator, the software-RTS model,
// the sharded executing runtime, and the single-maestro baseline — behind
// one Backend interface with a single Report shape, so cross-engine
// comparisons stop being hand-wired per experiment.
//
// The paper's core claim is comparative: the same StarSs workloads on
// Nexus++ vs. original Nexus vs. the software runtime. A Backend takes the
// same workload.Source every engine consumes and returns a Report with the
// same headline observables (tasks executed, makespan or wall time), plus a
// typed Detail for engine-specific depth. The five engines and the named
// workloads sit in two package-level slices sorted by name;
// cmd/nexusbench and internal/experiments resolve them by name.
package backend

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"nexuspp/internal/sim"
	"nexuspp/internal/workload"
)

// Config is the engine-independent run configuration. Every field beyond
// Workers is a knob a subset of engines honours; engines ignore knobs that
// do not apply to them (documented per field).
type Config struct {
	// Workers is the number of worker cores (simulated) or worker
	// goroutines (executing); 0 selects 8.
	Workers int
	// RecordSchedule keeps per-task execution intervals on simulated
	// engines so callers can validate the run against the dependency-graph
	// oracle. Executing engines ignore it.
	RecordSchedule bool
	// ZeroCost makes the executing engines replace every synthesized task
	// body with an empty function, measuring pure dependency-resolution
	// throughput. Simulated engines ignore it.
	ZeroCost bool
	// TimeScale divides the synthesized body durations of the executing
	// engines: 1 (or 0) replays traced timing unscaled. Simulated engines
	// ignore it.
	TimeScale int
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// Report is the unified result of running one workload on one backend.
// Exactly one of Makespan (simulated engines) and Wall (executing engines)
// is meaningful; Simulated says which.
type Report struct {
	// Backend and Workload identify the run.
	Backend  string
	Workload string
	// Workers is the worker count the run used.
	Workers int
	// Simulated distinguishes simulated engines (Makespan is simulated
	// time) from executing engines (Wall is measured wall-clock time).
	Simulated bool
	// Makespan is the simulated completion time; zero for executing engines.
	Makespan sim.Time
	// Wall is the measured wall-clock time; zero for simulated engines.
	Wall time.Duration
	// TasksExecuted counts tasks that completed the full lifecycle.
	TasksExecuted uint64
	// Detail carries the engine's native result for callers that need more
	// than the headline: *core.Result for the simulators, *softrts.Result
	// for the software-RTS model, *starss.ReplayResult for the executing
	// runtimes.
	Detail any
}

// Throughput returns tasks per second: per simulated second for simulated
// engines, per wall-clock second for executing ones. Zero when the run
// completed in zero time.
func (r *Report) Throughput() float64 {
	if r.Simulated {
		if r.Makespan <= 0 {
			return 0
		}
		return float64(r.TasksExecuted) / (r.Makespan.Nanoseconds() * 1e-9)
	}
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.TasksExecuted) / r.Wall.Seconds()
}

// Span renders the engine's time axis: the simulated makespan or the
// measured wall time.
func (r *Report) Span() string {
	if r.Simulated {
		return r.Makespan.String()
	}
	return r.Wall.String()
}

// Backend is one execution engine driving a traced workload to completion.
type Backend interface {
	// Name is the registry key (stable, flag-friendly).
	Name() string
	// Describe is a one-line description for listings.
	Describe() string
	// Run executes src to completion and reports the unified observables.
	// Engines that cannot execute the workload (the original Nexus's hard
	// structure limits) return an error.
	Run(ctx context.Context, cfg Config, src workload.Source) (*Report, error)
}

// All returns every backend sorted by name.
func All() []Backend { return slices.Clone(backends) }

// Names returns the sorted backend names.
func Names() []string {
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
	}
	return names
}

// Lookup resolves a backend by name; an unknown name fails with an error
// listing every valid name.
func Lookup(name string) (Backend, error) {
	for _, b := range backends {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("backend: unknown backend %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}
