package starss

import "sync/atomic"

// Outcome is how a task ended. The runtime decides it once, on the Handle
// Finished path; its counters, the scope's and the task's handle all carry
// that one decision.
type Outcome uint8

const (
	Pending  Outcome = iota // not finished yet
	Executed                // the body ran to completion successfully
	Failed                  // the body erred, panicked, or was cancelled before running
	Skipped                 // never ran: a transitive dependency failed
)

// TaskCounts is a snapshot of a tally. The JSON keys are the service's wire
// names: Stats, service.SessionStats and service.RuntimeDebug embed it.
type TaskCounts struct {
	Submitted uint64 `json:"submitted"`
	// Executed counts tasks whose body ran to completion successfully.
	Executed uint64 `json:"executed"`
	// Failed counts tasks whose body returned an error, panicked, or was
	// cancelled before running — the root causes of poisoning.
	Failed uint64 `json:"failed"`
	// Skipped counts tasks that never ran because a transitive dependency
	// failed; their handles report ErrDependencyFailed.
	Skipped uint64 `json:"skipped"`
}

// tally owns one set of task counters: the Runtime embeds one for every
// task, each Scope one for its own.
type tally struct {
	submitted atomic.Uint64
	ended     [Skipped + 1]atomic.Uint64 // finished tasks, by Outcome
}

// record counts one finished task.
func (t *tally) record(o Outcome) { t.ended[o].Add(1) }

func (t *tally) counts() TaskCounts {
	return TaskCounts{
		Submitted: t.submitted.Load(),
		Executed:  t.ended[Executed].Load(),
		Failed:    t.ended[Failed].Load(),
		Skipped:   t.ended[Skipped].Load(),
	}
}
