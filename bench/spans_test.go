package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "req", Start: 0, End: 100, Parent: noSpan},        // 0
		{Name: "client.submit", Start: 10, End: 40, Parent: 0},   // 1
		{Name: "client.await", Start: 30, End: 70, Parent: 0},    // 2: overlaps 1 by 10
		{Name: "http.roundtrip", Start: 12, End: 38, Parent: 1},  // 3
		{Name: "service.handler", Start: 15, End: 30, Parent: 3}, // 4
		{Name: "late.child", Start: 90, End: 130, Parent: 0},     // 5: clipped to the parent's end
		{Name: "orphan", Start: 5, End: 6, Parent: 99},           // 6: parent out of range
		{Name: "outside.child", Start: 200, End: 210, Parent: 4}, // 7: wholly outside its parent
	}
	// req: 100 - union([10,70] + [90,100]) = 100 - 70 = 30.
	want := []int64{30, 30 - 26, 40, 26 - 15, 15, 40, 1, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan, 1, 0)
	tr.end(id)
	tr.add(span{Name: "y"})
	if id != noSpan || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded: id %d, spans %v", id, tr.snapshot())
	}
}

func TestTracerNestsAndExports(t *testing.T) {
	tr := newTracer()
	root := tr.begin("rep", noSpan, 7, 0)
	kid := tr.begin("starss.wait", root, 7, 0)
	tr.end(kid)
	tr.end(root)
	open := tr.begin("never.closed", root, 7, 0)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[kid].Parent != root || spans[open].End != spans[open].Start {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if spans[root].Start > spans[kid].Start || spans[kid].End > spans[root].End {
		t.Fatalf("child not inside parent: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "out", "t.trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[1].Name != "starss.wait" {
		t.Fatalf("unexpected trace: %+v", doc.TraceEvents)
	}
}

// The grain workload's body must keep its core for at least the time asked.
func TestSpinForLastsAtLeastItsDuration(t *testing.T) {
	for _, d := range []time.Duration{0, 20 * time.Microsecond, 200 * time.Microsecond} {
		start := time.Now()
		spinFor(d)
		if got := time.Since(start); got < d {
			t.Errorf("spinFor(%v) returned after %v", d, got)
		}
	}
}
