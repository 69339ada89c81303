package main

import (
	"testing"
	"time"
)

// fakeClock is a virtual time source for one generator goroutine: sleeping
// jumps the clock, and the fake target advances it by its service time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// One connection, one request due every 10ms, 1ms of service — except
// request 3, which stalls for 45ms. A generator that timed requests from
// when it got round to sending them would report 1ms for requests 4..7;
// the stall delayed them, so their latency must say so.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		service  = time.Millisecond
		stall    = 45 * time.Millisecond
	)
	clk := &fakeClock{}
	res := runOpenLoop(clk, 10, 1, interval, func(_, i int) {
		if i == 3 {
			clk.now += stall
		} else {
			clk.now += service
		}
	})
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	// Request 3 is due at 30ms and completes at 75ms. Requests 4..7 were
	// due at 40..70ms, start back to back at 75, 76, 77, 78ms.
	wantLatency := []time.Duration{service, service, service, stall,
		36 * time.Millisecond, 27 * time.Millisecond, 18 * time.Millisecond, 9 * time.Millisecond,
		service, service}
	wantLate := []time.Duration{0, 0, 0, 0,
		35 * time.Millisecond, 26 * time.Millisecond, 17 * time.Millisecond, 8 * time.Millisecond,
		0, 0}
	for i := range wantLatency {
		if res.Latency[i] != us(wantLatency[i]) {
			t.Errorf("request %d: latency %vus, want %vus", i, res.Latency[i], us(wantLatency[i]))
		}
		if res.Late[i] != us(wantLate[i]) {
			t.Errorf("request %d: generator lateness %vus, want %vus", i, res.Late[i], us(wantLate[i]))
		}
	}
	if want := 91 * time.Millisecond; res.Elapsed != want {
		t.Errorf("elapsed %v, want %v", res.Elapsed, want)
	}
}

// With real goroutines every index is issued exactly once across workers.
func TestOpenLoopIssuesEveryRequestOnce(t *testing.T) {
	const n = 200
	hits := make([]int32, n)
	res := runOpenLoop(wallClock{base: time.Now()}, n, 4, 0, func(_, i int) { hits[i]++ })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("request %d issued %d times", i, h)
		}
	}
	if len(res.Latency) != n || len(res.Late) != n {
		t.Fatalf("result holds %d/%d samples, want %d", len(res.Latency), len(res.Late), n)
	}
}
