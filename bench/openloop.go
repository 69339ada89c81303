package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the open-loop generator's time source; tests substitute a
// virtual one so the coordinated-omission check needs no real waiting.
type clock interface {
	// Now is the time since the generator started.
	Now() time.Duration
	// SleepUntil returns once Now() >= t; it returns at once when t has
	// already passed.
	SleepUntil(t time.Duration)
}

type wallClock struct{ base time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.base) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// openLoopResult holds one request's timing per index, in microseconds.
type openLoopResult struct {
	// Latency is completion minus the request's due time, so a stall in
	// the target is charged to every request that came due during it.
	Latency []float64
	// Late is how long after its due time the generator started a request.
	Late []float64
	// Elapsed runs from the first due time to the last completion.
	Elapsed time.Duration
}

// runOpenLoop issues n requests on a fixed schedule — request i is due at
// i*interval regardless of how earlier requests fared — over `workers`
// connections. A worker that frees up late starts the next due request at
// once; the request's latency still counts from its due time.
func runOpenLoop(clk clock, n, workers int, interval time.Duration, do func(worker, i int)) openLoopResult {
	res := openLoopResult{Latency: make([]float64, n), Late: make([]float64, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				clk.SleepUntil(due)
				start := clk.Now()
				do(w, i)
				end := clk.Now()
				res.Late[i] = float64(start-due) / 1e3
				res.Latency[i] = float64(end-due) / 1e3
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = clk.Now()
	return res
}
