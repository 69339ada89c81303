package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark itself
// around the call (never from inside the program under test).
type span struct {
	Name string
	// Start and End are nanoseconds on the tracer's monotonic clock.
	Start, End int64
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int32
	// Req is shared by every span of one request (or repeat).
	Req uint64
	// Lane separates concurrent actors in the exported timeline.
	Lane int
}

// noSpan is the parent of a root span and the id a nil tracer hands out.
const noSpan int32 = -1

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int32, req uint64, lane int) int32 {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Req: req, Lane: lane})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records an already-timed span (task bodies time themselves so the
// hot path takes the lock once, not twice).
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans recorded so far; indexes in
// Parent stay valid because unclosed spans are kept in place, zero-length.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i := range out {
		if out[i].End < out[i].Start {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.Parent < 0 || int(s.Parent) >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := kids[int32(i)]
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, curA, curB := int64(0), ivs[0].a, ivs[0].b
		for _, v := range ivs[1:] {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		self[i] -= covered
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-viewer
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace JSON (open it in
// chrome://tracing or https://ui.perfetto.dev). Self time rides along in
// each event's args.
func writeChromeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"req": s.Req, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
