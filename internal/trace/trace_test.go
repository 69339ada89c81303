package trace

import (
	"math"
	"strings"
	"testing"

	"nexuspp/internal/sim"
)

func TestAccessMode(t *testing.T) {
	cases := []struct {
		m             AccessMode
		reads, writes bool
		s             string
	}{
		{In, true, false, "in"},
		{Out, false, true, "out"},
		{InOut, true, true, "inout"},
	}
	for _, c := range cases {
		if c.m.Reads() != c.reads || c.m.Writes() != c.writes || c.m.String() != c.s {
			t.Errorf("%v: reads=%v writes=%v str=%q", c.m, c.m.Reads(), c.m.Writes(), c.m.String())
		}
	}
	if !strings.Contains(AccessMode(9).String(), "9") {
		t.Error("unknown mode String should include the raw value")
	}
}

func validTask() TaskSpec {
	return TaskSpec{
		ID:   1,
		Func: 7,
		Params: []Param{
			{Addr: 0x1000, Size: 1024, Mode: In},
			{Addr: 0x2000, Size: 1024, Mode: InOut},
		},
		Exec:     10 * sim.Microsecond,
		MemRead:  5 * sim.Microsecond,
		MemWrite: 2 * sim.Microsecond,
	}
}

func TestTaskValidate(t *testing.T) {
	ok := validTask()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	neg := validTask()
	neg.Exec = -1
	if neg.Validate() == nil {
		t.Error("negative exec accepted")
	}
	empty := validTask()
	empty.Params = nil
	if empty.Validate() == nil {
		t.Error("empty param list accepted")
	}
	dup := validTask()
	dup.Params = append(dup.Params, Param{Addr: 0x1000, Mode: Out})
	if dup.Validate() == nil {
		t.Error("duplicate address accepted")
	}
}

func TestH264TimesStatistics(t *testing.T) {
	s := NewH264Times(1)
	const n = 20000
	var sumE, sumM float64
	for i := 0; i < n; i++ {
		e, r, w := s.Sample()
		if e <= 0 || r <= 0 || w < 0 {
			t.Fatalf("non-positive sample: %v %v %v", e, r, w)
		}
		sumE += float64(e)
		sumM += float64(r + w)
	}
	meanE := sumE / n / float64(sim.Microsecond)
	meanM := sumM / n / float64(sim.Microsecond)
	if math.Abs(meanE-11.8) > 0.5 {
		t.Errorf("mean exec = %.2fus, want ~11.8us", meanE)
	}
	if math.Abs(meanM-7.5) > 0.4 {
		t.Errorf("mean mem = %.2fus, want ~7.5us", meanM)
	}
}

func TestH264TimesDeterminism(t *testing.T) {
	a, b := NewH264Times(5), NewH264Times(5)
	for i := 0; i < 100; i++ {
		e1, r1, w1 := a.Sample()
		e2, r2, w2 := b.Sample()
		if e1 != e2 || r1 != r2 || w1 != w2 {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestFixedTimes(t *testing.T) {
	f := FixedTimes{Exec: 10, MemRead: 5, MemWrite: 3}
	e, r, w := f.Sample()
	if e != 10 || r != 5 || w != 3 {
		t.Fatalf("FixedTimes.Sample = %v %v %v", e, r, w)
	}
}
