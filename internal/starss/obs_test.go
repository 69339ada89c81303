package starss

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"nexuspp/internal/obs"
	"nexuspp/internal/workload"
)

// smallWavefront is the H.264 wavefront pattern on a grid small enough for
// drop-free event capture with modest ring buffers.
func smallWavefront() workload.Source {
	return workload.Grid(workload.GridConfig{Pattern: workload.PatternWavefront, Rows: 8, Cols: 8, Seed: 1})
}

func TestEventsDisabledByDefault(t *testing.T) {
	rt := New(Config{Workers: 2})
	if rt.Events() != nil {
		t.Fatal("Events() non-nil without Config.EventBuffer")
	}
	h := rt.MustSubmit(Task{Do: func(context.Context) error { return nil }})
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := h.Err(); err != nil {
		t.Fatalf("task: %v", err)
	}
	if s := rt.Stats(); s.BankAcquisitions != 0 || s.BankContended != 0 || s.BankMaxQueue != 0 {
		t.Fatalf("bank counters nonzero without Config.BankCounters: %+v", s)
	}
}

// TestEventStreamWavefront replays a real wavefront on an instrumented
// runtime and checks the drained log is complete (one submit/ready/run/
// finish per task, nothing dropped), that every run nests inside its
// worker's timeline without overlap, and that the Chrome export of the log
// is valid JSON.
func TestEventStreamWavefront(t *testing.T) {
	rt := New(Config{Workers: 4, EventBuffer: 8192, BankCounters: true})
	res, err := Replay(context.Background(), rt, smallWavefront(), ReplayOptions{ZeroCost: true})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := rt.Events()
	if rec == nil {
		t.Fatal("Events() nil with EventBuffer set")
	}
	events := rec.Drain()
	if rec.Dropped() != 0 {
		t.Fatalf("%d events dropped; ring too small for this test", rec.Dropped())
	}

	perTask := map[uint64]map[obs.Kind]int{}
	for _, ev := range events {
		if perTask[ev.Task] == nil {
			perTask[ev.Task] = map[obs.Kind]int{}
		}
		perTask[ev.Task][ev.Kind]++
	}
	if uint64(len(perTask)) != res.Stats.Submitted {
		t.Fatalf("events cover %d tasks, stats report %d submitted", len(perTask), res.Stats.Submitted)
	}
	for task, kinds := range perTask {
		if kinds[obs.KindSubmit] != 1 || kinds[obs.KindReady] != 1 || kinds[obs.KindRun] != 1 {
			t.Fatalf("task %d lifecycle counts %v, want one submit/ready/run", task, kinds)
		}
		if kinds[obs.KindFinish]+kinds[obs.KindPoison] != 1 {
			t.Fatalf("task %d has %d terminal events, want 1", task, kinds[obs.KindFinish]+kinds[obs.KindPoison])
		}
	}

	// Nesting property: per worker, the [run, finish] intervals of its
	// tasks must not overlap — a worker executes one body at a time, so a
	// task's run may start exactly when the previous finish was stamped,
	// but never before it.
	type interval struct{ start, end int64 }
	perWorker := map[int]map[uint64]*interval{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindRun, obs.KindFinish, obs.KindPoison:
			if perWorker[ev.Worker] == nil {
				perWorker[ev.Worker] = map[uint64]*interval{}
			}
			iv := perWorker[ev.Worker][ev.Task]
			if iv == nil {
				iv = &interval{}
				perWorker[ev.Worker][ev.Task] = iv
			}
			if ev.Kind == obs.KindRun {
				iv.start = ev.TS
			} else {
				iv.end = ev.TS
			}
		}
	}
	for worker, tasks := range perWorker {
		ivs := make([]interval, 0, len(tasks))
		for task, iv := range tasks {
			if iv.end < iv.start {
				t.Fatalf("worker %d task %d finishes (%d) before it runs (%d)", worker, task, iv.end, iv.start)
			}
			ivs = append(ivs, *iv)
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				t.Fatalf("worker %d has overlapping runs: [%d,%d] then [%d,%d]",
					worker, ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, events); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}

	s := rt.Stats()
	if s.BankAcquisitions == 0 {
		t.Fatal("BankCounters on but no acquisitions counted")
	}
	if s.BankContended > s.BankAcquisitions {
		t.Fatalf("contended (%d) exceeds acquisitions (%d)", s.BankContended, s.BankAcquisitions)
	}
	if s.BankMaxQueue == 0 {
		t.Fatal("wavefront has hazards but BankMaxQueue is 0")
	}
}

// TestEventStreamPoison checks skipped tasks appear as poison events.
func TestEventStreamPoison(t *testing.T) {
	rt := New(Config{Workers: 2, EventBuffer: 64})
	gate := make(chan struct{}) // holds the segment until the dependent is queued
	boom := rt.MustSubmit(Task{
		Deps: []Dep{Out(addrK)},
		Do:   func(context.Context) error { <-gate; return errBoom },
	})
	dep := rt.MustSubmit(Task{
		Deps: []Dep{In(addrK)},
		Do:   func(context.Context) error { return nil },
	})
	close(gate)
	if err := rt.Close(); err == nil {
		t.Fatal("Close should report the failure")
	}
	if boom.Err() == nil || dep.Err() == nil {
		t.Fatal("expected both handles to report errors")
	}
	var poisons, finishes int
	for _, ev := range rt.Events().Drain() {
		switch ev.Kind {
		case obs.KindPoison:
			poisons++
		case obs.KindFinish:
			finishes++
		}
	}
	if poisons != 1 || finishes != 1 {
		t.Fatalf("got %d poison, %d finish events; want 1 each (failed task finishes, skipped task poisons)", poisons, finishes)
	}
}

// TestEventRingDrops checks undersized rings drop (and count) rather than
// block or grow.
func TestEventRingDrops(t *testing.T) {
	rt := New(Config{Workers: 1, EventBuffer: 1}) // raised to the floor of 16
	for i := 0; i < 200; i++ {
		rt.MustSubmit(Task{Do: func(context.Context) error { return nil }})
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec := rt.Events()
	if rec.Dropped() == 0 {
		t.Fatal("200 tasks through 16-slot rings should drop events")
	}
	if n := len(rec.Drain()); n == 0 {
		t.Fatal("drain returned nothing despite emissions")
	}
}
