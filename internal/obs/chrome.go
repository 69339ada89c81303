package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-viewer export. The output is the Trace Event Format's JSON
// object form ({"traceEvents": [...]}), loadable in chrome://tracing and
// Perfetto: each executed task becomes one complete ("X") slice on its
// worker's row spanning run→finish, skipped tasks become zero-work slices
// in the "poison" category, and submit/ready transitions become instant
// ("i") events. Timestamps are microseconds, as the format requires.

// chromeEvent is one Trace Event Format record. Field order (and
// encoding/json's sorted map keys for Args) keeps the output stable for
// golden-file tests.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level document.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

const chromePID = 1

// chromeTID maps a worker index onto a trace row: row 0 is the admission
// (submit-side) lane, worker w is row w+1.
func chromeTID(worker int) int {
	if worker < 0 {
		return 0
	}
	return worker + 1
}

// usOf converts recorder nanoseconds to trace microseconds.
func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace converts a drained event log into Chrome trace-viewer
// JSON. Events are re-sorted into the canonical order first, so the output
// depends only on the event set, not on the caller's ordering. Run events
// with no matching finish/poison (a drain mid-flight, or a ring that
// dropped the closing event) become zero-duration slices in the
// "unterminated" category rather than being lost.
func WriteChromeTrace(w io.Writer, events []Event) error {
	sorted := append([]Event(nil), events...)
	SortEvents(sorted)

	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: metadataEvents(sorted)}
	open := make(map[uint64]Event) // task -> its unmatched run event
	var openOrder []uint64
	for _, ev := range sorted {
		switch ev.Kind {
		case KindSubmit, KindReady:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: ev.Kind.String(),
				Cat:  "lifecycle",
				Ph:   "i",
				TS:   usOf(ev.TS),
				PID:  chromePID,
				TID:  chromeTID(ev.Worker),
				S:    "t",
				Args: taskArgs(ev),
			})
		case KindRun:
			if _, dup := open[ev.Task]; !dup {
				openOrder = append(openOrder, ev.Task)
			}
			open[ev.Task] = ev
		case KindFinish, KindPoison:
			run, ok := open[ev.Task]
			if !ok {
				// A finish whose run was dropped: anchor a zero-duration
				// slice at the finish time so the task still appears.
				run = ev
			}
			delete(open, ev.Task)
			cat := "task"
			if ev.Kind == KindPoison {
				cat = "poison"
			}
			dur := usOf(ev.TS - run.TS)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("task%d", ev.Task),
				Cat:  cat,
				Ph:   "X",
				TS:   usOf(run.TS),
				Dur:  &dur,
				PID:  chromePID,
				TID:  chromeTID(ev.Worker),
				Args: taskArgs(ev),
			})
		}
	}
	for _, task := range openOrder {
		run, ok := open[task]
		if !ok {
			continue
		}
		dur := 0.0
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("task%d", run.Task),
			Cat:  "unterminated",
			Ph:   "X",
			TS:   usOf(run.TS),
			Dur:  &dur,
			PID:  chromePID,
			TID:  chromeTID(run.Worker),
			Args: taskArgs(run),
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// taskArgs renders the event's task identity for the slice's Args pane.
func taskArgs(ev Event) map[string]any {
	return map[string]any{"task": ev.Task, "keys": ev.Keys, "bank": ev.Bank}
}

// metadataEvents names the process and every thread row that appears in
// the event set, so the viewer shows "admission" and "worker N" instead of
// bare thread IDs.
func metadataEvents(sorted []Event) []chromeEvent {
	maxWorker := -1
	hasExternal := false
	for _, ev := range sorted {
		if ev.Worker > maxWorker {
			maxWorker = ev.Worker
		}
		if ev.Worker < 0 {
			hasExternal = true
		}
	}
	meta := []chromeEvent{{
		Name: "process_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "nexuspp runtime"},
	}}
	if hasExternal {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: 0,
			Args: map[string]any{"name": "admission"},
		})
	}
	for w := 0; w <= maxWorker; w++ {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: chromeTID(w),
			Args: map[string]any{"name": fmt.Sprintf("worker %d", w)},
		})
	}
	return meta
}
