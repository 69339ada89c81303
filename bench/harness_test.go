package main

import (
	"math"
	"testing"
	"time"
)

// fakeInstance reports the same repeat every time.
type fakeInstance struct {
	rep     repResult
	repeats int
	ended   int
}

func (f *fakeInstance) repeat(*tracer) (repResult, error) { f.repeats++; return f.rep, nil }
func (f *fakeInstance) endRepeat() error                  { f.ended++; return nil }
func (f *fakeInstance) verify() error                     { return nil }
func (f *fakeInstance) tasksPerRepeat() int               { return f.rep.Tasks }
func (f *fakeInstance) close() error                      { return nil }
func (f *fakeInstance) layers(*tracer, *phase, *phase) (map[string]float64, error) {
	return nil, nil
}

func TestHostSpeed(t *testing.T) {
	for _, c := range []struct{ before, after, want float64 }{
		{refNominalUS, refNominalUS, 1},
		{2 * refNominalUS, 2 * refNominalUS, 0.5}, // the kernel took twice as long: the host is half as fast
		{refNominalUS, 3 * refNominalUS, 0.5},     // the two brackets are averaged
		{refNominalUS / 2, refNominalUS / 2, 2},
	} {
		if got := hostSpeed(c.before, c.after); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hostSpeed(%v, %v) = %v, want %v", c.before, c.after, got, c.want)
		}
	}
	var none *hostRef
	if got := none.measureUS(); got != refNominalUS {
		t.Errorf("no reference reads %v, want nominal: unscaled workloads must see speed 1", got)
	}
}

// Without a reference nothing is scaled, every repeat is kept, and the
// phase reduces to the end-to-end metrics by medians and nearest ranks.
func TestMeasureKeepsEveryRepeatUnscaled(t *testing.T) {
	inst := &fakeInstance{rep: repResult{Tasks: 1000, Wall: 10 * time.Millisecond, OpLatUS: []float64{100, 200, 300, 400}, Failed: 1}}
	ph, err := measure(inst, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.repeats != 1 || inst.ended != 1 || len(ph.Reps) != 1 {
		t.Fatalf("a zero budget must still measure exactly once: %d repeats, %d ended, %d kept", inst.repeats, inst.ended, len(ph.Reps))
	}
	r := ph.Reps[0]
	if r.HostSpeed != 1 || r.RawTasksPerS != 100000 || r.TasksPerS != 100000 || r.Ops != 4 || r.FailedOps != 1 {
		t.Errorf("unexpected sample: %+v", r)
	}
	if ph.Failed != 1 || len(ph.OpLatUS) != 4 || ph.OpLatUS[3] != 400 {
		t.Errorf("unexpected phase: failed %d, latencies %v", ph.Failed, ph.OpLatUS)
	}
	m := endToEnd([]float64{0.3, 0.1, 0.2}, ph)
	if m["setup_s"] != 0.2 || m["tasks_per_s"] != 100000 || m["op_p50_us"] != 200 || m["op_p90_us"] != 400 {
		t.Errorf("unexpected end-to-end metrics: %v", m)
	}
}

// With a reference, a repeat's rate is divided and its latencies are
// multiplied by the speed the bracketing reference runs saw.
func TestMeasureScalesByHostSpeed(t *testing.T) {
	inst := &fakeInstance{rep: repResult{Tasks: 1000, Wall: 10 * time.Millisecond, OpLatUS: []float64{100}}}
	ph, err := measure(inst, nil, 0, newHostRef())
	if err != nil {
		t.Fatal(err)
	}
	r := ph.Reps[0]
	if r.HostSpeed <= 0 || r.RawTasksPerS != 100000 {
		t.Fatalf("unexpected sample: %+v", r)
	}
	if got, want := r.TasksPerS, r.RawTasksPerS/r.HostSpeed; math.Abs(got-want) > 1e-9*want {
		t.Errorf("scaled rate %v, want raw/speed = %v", got, want)
	}
	if got, want := ph.OpLatUS[0], 100*r.HostSpeed; math.Abs(got-want) > 1e-9*want {
		t.Errorf("scaled latency %v, want raw*speed = %v", got, want)
	}
}
