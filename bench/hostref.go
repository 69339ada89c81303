package main

import (
	"math"
	"time"
)

// Host-speed reference.
//
// The sandboxes this benchmark runs in share their memory system with
// neighbours: over an hour the same binary's throughput on the saturating
// workloads moves by 30–40 %, in phases that last minutes, while a
// register-only loop does not move at all. No statistic inside a 15 s run
// can remove a phase that outlasts the run. What does remove most of it is
// a reference: a fixed, small kernel that suffers the same interference,
// run between repeats, whose time says how fast the host is right now. In
// a 42-minute, 23-run trial the run-to-run spread of tasks_per_s fell from
// 13–21 % raw to 3–5 % scaled, and the worst shift between consecutive
// ten-run medians from 11–18 % to under 5 % (README.md, "Host scaling").
//
// Only workloads that keep the CPUs saturated are scaled. rt_grain's
// bodies spin for a fixed wall time and svc_open sleeps to a schedule, so
// their times are anchored to the clock, not to the host's speed; scaling
// them adds the reference's noise and removes nothing.
//
// The kernel has two halves, because the workloads lean on two things: a
// memory-bound mix (map update, heap sift, random array write over a few
// MB, no allocation, so it does not depend on the heap the program under
// test built) and a goroutine ping-pong over unbuffered channels (the
// cross-core wake-up every ready hand-off and every await pays). Their
// geometric mean is the reference time.

// refNominalUS is the reference time that counts as speed 1.0: about what
// the kernel takes on this class of sandbox in its quieter phases. Only
// ratios of scaled numbers mean anything, so its exact value is arbitrary;
// changing it redefines every scaled metric.
const refNominalUS = 5000

const (
	refMemIters  = 100_000
	refSyncIters = 10_000
)

type hostRef struct {
	m    map[uint64]uint64
	heap []uint64
	arr  []uint64
	sink uint64
}

func newHostRef() *hostRef {
	h := &hostRef{m: make(map[uint64]uint64, 1<<16), heap: make([]uint64, 1<<16), arr: make([]uint64, 1<<19)}
	for i := 0; i < 1<<16; i++ {
		h.m[uint64(i)*2654435761] = uint64(i)
		h.heap[i] = uint64(i) * 11400714819323198485
	}
	return h
}

// memKernel does refMemIters rounds of: update a map entry, replace the
// root of an implicit min-heap and sift it down, write a random array cell.
func (h *hostRef) memKernel() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < refMemIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.m[(x%(1<<16))*2654435761] += x
		hp := h.heap
		hp[0] = x
		for j := 0; ; {
			l := 2*j + 1
			if l >= len(hp) {
				break
			}
			if l+1 < len(hp) && hp[l+1] < hp[l] {
				l++
			}
			if hp[j] <= hp[l] {
				break
			}
			hp[j], hp[l] = hp[l], hp[j]
			j = l
		}
		h.arr[x%(1<<19)] += x
	}
	h.sink += x
	return time.Since(start)
}

// syncKernel bounces a value between two goroutines refSyncIters times.
func syncKernel() time.Duration {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	start := time.Now()
	for i := 0; i < refSyncIters; i++ {
		ping <- i
		<-pong
	}
	d := time.Since(start)
	close(ping)
	<-pong // the echo goroutine has ended
	return d
}

// measureUS runs both halves and returns their geometric mean in
// microseconds. A nil reference (an unscaled workload) reads as nominal.
func (h *hostRef) measureUS() float64 {
	if h == nil {
		return refNominalUS
	}
	mem, sync := h.memKernel(), syncKernel()
	return math.Sqrt(float64(mem.Nanoseconds())*float64(sync.Nanoseconds())) / 1e3
}

// hostSpeed is the host's speed over an interval bracketed by two reference
// times: 1.0 at nominal, below it when the host is slow. Durations measured
// in the interval are multiplied by it, rates divided.
func hostSpeed(beforeUS, afterUS float64) float64 {
	return refNominalUS / ((beforeUS + afterUS) / 2)
}
