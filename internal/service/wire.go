// Package service is the long-lived, multi-tenant task service over the
// sharded executing runtime: the software analogue of the paper's hardware
// task manager serving many master cores concurrently. A single shared
// starss.Runtime resolves dependencies for every client, while each client
// session gets an isolated namespace (its own starss.Scope, the address
// space of one master core), its own admission window with 429
// backpressure, and its own per-session Stats. Sessions drain gracefully on
// explicit close or idle expiry: cancelling the session context fails its
// unstarted tasks and the runtime's poisoning propagates through its graph
// without ever wedging the shared resolver.
//
// The wire format deliberately reuses the traced-task shape of
// internal/trace: a task is a parameter list of (addr, size, mode) plus a
// synthesized execution time, so any traced workload can be shipped to a
// live daemon with a trivial transform (see cmd/nexusbench serve).
//
// It is JSON, and one format: the structs and tags in this file are the
// schema, and encoding/json defines what is accepted. The four messages a
// task passes through — SubmitRequest, SubmitResponse, AwaitRequest,
// AwaitResponse — are encoded and decoded by the codec in codec.go, on both
// the server and the client, through pooled buffers and without a per-task
// allocation: it reads the compact form it emits by hand and hands any
// other document to encoding/json. encoding/json reaches the same code
// through their MarshalJSON/UnmarshalJSON. The cold messages (session
// creation, stats, /debug, errors) stay on encoding/json.
// A submitted batch then becomes runtime tasks in one pass (buildTasks),
// its parameters address dependencies (starss.In/Out/InOut), and is adopted in
// place by the session's namespace (starss.Scope.TrySubmitAll). DESIGN.md,
// "What one submitted task costs", has the numbers and the lifetime rules.
package service

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"nexuspp/internal/starss"
	"nexuspp/internal/trace"
)

// TaskSpec is one task in a submission request — the JSON projection of
// trace.TaskSpec onto the service API. Keys are the parameter base
// addresses, namespaced per session by the server.
type TaskSpec struct {
	// Name is optional and surfaces in error messages.
	Name string `json:"name,omitempty"`
	// Params is the input/output list; addresses are the dependency keys.
	Params []Param `json:"params"`
	// ExecUS synthesizes the task body: sleep this many microseconds
	// (honouring cancellation). Zero or negative means an empty body.
	ExecUS int64 `json:"exec_us,omitempty"`
	// TimeoutMS bounds each execution attempt of the task body; an attempt
	// exceeding it fails with starss.ErrTaskTimeout. 0 means no per-task
	// deadline (the session deadline, if any, still applies).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxRetries re-arms a failed body up to this many times (after a
	// capped exponential backoff, 1 ms doubling to 250 ms, with full
	// jitter) before the failure sticks and poisons dependents. 0 means
	// fail fast.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Param is one entry of a task's input/output list.
type Param struct {
	Addr uint64 `json:"addr"`
	Size uint32 `json:"size,omitempty"`
	// Mode is "in", "out" or "inout" (the StarSs pragma spellings).
	Mode string `json:"mode"`
}

// FromTraceSpec converts a traced task into its wire form, so traced
// workloads can be submitted to a live daemon.
func FromTraceSpec(spec trace.TaskSpec) TaskSpec {
	ts := TaskSpec{
		Params: make([]Param, len(spec.Params)),
		ExecUS: int64(spec.Exec.Microseconds()),
	}
	for i, p := range spec.Params {
		ts.Params[i] = Param{Addr: p.Addr, Size: p.Size, Mode: p.Mode.String()}
	}
	return ts
}

// buildTasks converts a wire batch into runtime tasks in one pass,
// appending them to dst. Every task's Deps are carved from one slab, the
// batch's only allocation here; the runtime reads Deps until each task
// finishes, so the slab is never pooled. A task that sets timeout_ms or
// max_retries gets its body wrapped, starss.Retry(starss.Deadline(body)),
// and its re-arms counted in retried; one that sets neither gets no
// closure.
func buildTasks(dst []starss.Task, specs []TaskSpec, retried *atomic.Uint64) ([]starss.Task, error) {
	total := 0
	for i := range specs {
		total += len(specs[i].Params)
	}
	slab := make([]starss.Dep, total)
	for i := range specs {
		ts := &specs[i]
		n := len(ts.Params)
		if n == 0 {
			return dst, fmt.Errorf("task %q has no params", ts.Name)
		}
		var deps []starss.Dep
		deps, slab = slab[:n:n], slab[n:]
		for j, p := range ts.Params {
			switch p.Mode {
			case "in":
				deps[j] = starss.In(p.Addr)
			case "out":
				deps[j] = starss.Out(p.Addr)
			case "inout":
				deps[j] = starss.InOut(p.Addr)
			default:
				return dst, fmt.Errorf("task %q param %d: unknown mode %q (valid: in, out, inout)", ts.Name, j, p.Mode)
			}
		}
		if ts.MaxRetries < 0 || ts.MaxRetries > 16 {
			return dst, fmt.Errorf("task %q: max_retries %d out of range [0,16]", ts.Name, ts.MaxRetries)
		}
		exec, err := wireDuration("exec_us", ts.ExecUS, time.Microsecond)
		if err != nil {
			return dst, fmt.Errorf("task %q: %w", ts.Name, err)
		}
		timeout, err := wireDuration("timeout_ms", ts.TimeoutMS, time.Millisecond)
		if err != nil {
			return dst, fmt.Errorf("task %q: %w", ts.Name, err)
		}
		do := starss.SleepBody(exec)
		if timeout > 0 {
			do = starss.Deadline(do, timeout)
		}
		if ts.MaxRetries > 0 {
			do = starss.Retry(do, ts.MaxRetries, retried)
		}
		dst = append(dst, starss.Task{Name: ts.Name, Deps: deps, Do: do})
	}
	return dst, nil
}

// wireDuration converts a wire count of unit into a time.Duration. A count
// whose product would wrap around int64 nanoseconds is an error, not a
// short or negative duration.
func wireDuration(field string, n int64, unit time.Duration) (time.Duration, error) {
	if n > math.MaxInt64/int64(unit) || n < math.MinInt64/int64(unit) {
		return 0, fmt.Errorf("%s %d out of range", field, n)
	}
	return time.Duration(n) * unit, nil
}

// SubmitRequest is the body of POST /v1/sessions/{id}/submit.
type SubmitRequest struct {
	Tasks []TaskSpec `json:"tasks"`
	// IdempotencyKey, when set, makes the submit exactly-once per session:
	// a repeat of a key whose batch was admitted returns the original IDs
	// (Deduped=true) without re-executing anything. Failed submits are not
	// memoized, so a retry after a 429 gets a fresh admission attempt.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// SubmitResponse returns the session-local IDs assigned to the admitted
// tasks, in submission order.
type SubmitResponse struct {
	IDs []uint64 `json:"ids"`
	// Deduped reports that the idempotency key matched an earlier admitted
	// batch and IDs are its original assignment.
	Deduped bool `json:"deduped,omitempty"`
}

// AwaitRequest is the body of POST /v1/sessions/{id}/await. Empty IDs
// means every task the session has submitted so far.
type AwaitRequest struct {
	IDs []uint64 `json:"ids,omitempty"`
	// TimeoutMS bounds the server-side wait; 0 selects 30s, capped at 120s.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Task states reported by await.
const (
	StateOK      = "ok"      // body ran to completion
	StateFailed  = "failed"  // body errored, panicked, or was cancelled
	StateSkipped = "skipped" // a transitive dependency failed
	StatePending = "pending" // not finished within the await timeout
)

// TaskStatus is one task's outcome in an await response.
type TaskStatus struct {
	ID    uint64 `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// AwaitResponse reports the awaited tasks; Done is true when none of them
// is still pending.
type AwaitResponse struct {
	Done  bool         `json:"done"`
	Tasks []TaskStatus `json:"tasks"`
}

// CreateSessionRequest is the optional body of POST /v1/sessions.
type CreateSessionRequest struct {
	// DeadlineMS bounds the session's total lifetime; past it every
	// unstarted task fails and the session drains exactly as on expiry.
	// 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SessionInfo is the response to POST /v1/sessions.
type SessionInfo struct {
	Session string `json:"session"`
	// Window is the session's admission window: the maximum number of
	// in-flight (submitted, unfinished) tasks before submits get 429.
	Window int `json:"window"`
	// DeadlineMS echoes the session deadline, when one was requested.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SessionStats is the response to GET /v1/sessions/{id}/stats.
type SessionStats struct {
	Session  string `json:"session"`
	Window   int    `json:"window"`
	InFlight int64  `json:"in_flight"`
	starss.TaskCounts
	MaxInFlight int `json:"max_in_flight"`
}

// RuntimeDebug is the shared runtime's slice of the /debug report: its
// Stats — the bank_* fields are the dependence-bank lock counters (the
// service enables starss.Config.BankCounters), also exported through GET
// /metrics — and the live window and queue gauges.
type RuntimeDebug struct {
	starss.Stats
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	Window     int `json:"window"`
}

// DebugInfo is the response to GET /debug: server-wide counters plus one
// entry per live session.
type DebugInfo struct {
	UptimeS    float64        `json:"uptime_s"`
	Goroutines int            `json:"goroutines"`
	Sessions   int            `json:"sessions"`
	Runtime    RuntimeDebug   `json:"runtime"`
	PerSession []SessionStats `json:"per_session"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
