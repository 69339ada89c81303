package starss

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file retains the original single-maestro resolver as a measurable
// baseline, the same way internal/nexus1 and internal/softrts retain the
// systems the paper compares against. Every Submit and every task-finished
// event funnels through one resolver goroutine over synchronous channels —
// the exact software serialization bottleneck the paper's SSI motivation
// describes and the sharded Runtime removes. It keeps full API parity with
// the sharded runtime — typed handles, error propagation, poisoning,
// context-aware lifecycle — so benchmarks drive both through the identical
// TaskRuntime interface and compare like-for-like. New code should use New;
// use NewMaestro only to measure against it (cmd/nexusbench shards,
// BenchmarkShardScalability).

// TaskRuntime is the execution interface shared by the sharded Runtime and
// the retained single-maestro baseline, for benchmarks that drive both.
type TaskRuntime interface {
	Submit(ctx context.Context, t Task) (*Handle, error)
	MustSubmit(t Task) *Handle
	Wait(ctx context.Context) error
	Stats() Stats
	Close() error
}

// MaestroRuntime is the original single-resolver runtime. All dependency
// state is owned by one maestro goroutine; Submit hands every task to it
// over an unbuffered channel and finished tasks queue back the same way.
type MaestroRuntime struct {
	cfg      Config
	submitCh chan *taskNode
	doneCh   chan *taskNode
	barrier  chan chan struct{}
	statsCh  chan chan Stats
	window   chan struct{}
	readyCh  chan *taskNode
	stopOnce sync.Once
	// drain tells the maestro goroutine to finish every in-flight task and
	// exit; stopped is closed only after it has, so late submitters and
	// waiters blocked on the maestro's channels always unblock into
	// ErrStopped instead of deadlocking against a gone resolver.
	drain     chan struct{}
	stopped   chan struct{}
	exec      executor
	retried   atomic.Uint64
	nextIndex atomic.Uint64
	firstErr  atomic.Pointer[taskFailure]
	final     Stats // snapshot taken by Close, readable afterwards
	workerWG  sync.WaitGroup
	maestroW  sync.WaitGroup
}

// NewMaestro starts the single-maestro baseline runtime. It supports the
// full task lifecycle (Submit, Wait, Stats, Close, handles, poisoning) but
// not the sharded Runtime's extensions (SubmitAll, WaitOn, graph
// recording).
func NewMaestro(cfg Config) *MaestroRuntime {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.BufferingDepth <= 0 {
		cfg.BufferingDepth = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	m := &MaestroRuntime{
		cfg:      cfg,
		submitCh: make(chan *taskNode),
		doneCh:   make(chan *taskNode, cfg.Workers),
		barrier:  make(chan chan struct{}),
		statsCh:  make(chan chan Stats),
		window:   make(chan struct{}, cfg.Window),
		readyCh:  make(chan *taskNode, cfg.Window),
		drain:    make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	m.exec = executor{
		faults: cfg.Faults,
		onRetry: func(*taskNode, int, int) {
			m.retried.Add(1)
		},
	}
	m.maestroW.Add(1)
	go m.maestro()
	m.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues a task through the maestro goroutine and returns its
// handle. It blocks while the window is full — cancelling ctx unblocks it —
// and the ctx is also the context the task body receives. A nil ctx means
// context.Background().
func (m *MaestroRuntime) Submit(ctx context.Context, t Task) (*Handle, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	node, err := makeNode(ctx, &t)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-m.stopped:
		return nil, ErrStopped
	case <-ctx.Done():
		return nil, ctx.Err()
	case m.window <- struct{}{}:
	}
	node.handle = &Handle{name: t.Name, index: m.nextIndex.Add(1) - 1, onDone: t.onDone}
	select {
	case <-m.stopped:
		<-m.window
		return nil, ErrStopped
	case <-ctx.Done():
		<-m.window
		return nil, ctx.Err()
	case m.submitCh <- node:
		return node.handle, nil
	}
}

// MustSubmit is Submit with a background context that panics on submission
// error.
func (m *MaestroRuntime) MustSubmit(t Task) *Handle {
	h, err := m.Submit(context.Background(), t)
	if err != nil {
		panic(err)
	}
	return h
}

// Wait blocks until every task submitted before the call has completed and
// returns the first task failure recorded so far, ctx.Err() on
// cancellation, or ErrStopped when the runtime is already closed.
func (m *MaestroRuntime) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	reply := make(chan struct{})
	select {
	case <-m.stopped:
		return ErrStopped
	case <-ctx.Done():
		return ctx.Err()
	case m.barrier <- reply:
	}
	select {
	case <-reply:
		return m.failure()
	case <-ctx.Done():
		// The abandoned reply channel is closed by the maestro at the next
		// idle transition; nothing leaks beyond it.
		return ctx.Err()
	}
}

// failure returns the first recorded root-cause task failure, or nil.
func (m *MaestroRuntime) failure() error {
	if f := m.firstErr.Load(); f != nil {
		return f.err
	}
	return nil
}

// Stats returns a snapshot of the runtime counters.
func (m *MaestroRuntime) Stats() Stats {
	reply := make(chan Stats, 1)
	select {
	case <-m.stopped:
		return m.final
	case m.statsCh <- reply:
		s := <-reply
		s.Retried = m.retried.Load()
		return s
	}
}

// Close waits for all submitted tasks, stops the workers and returns the
// first task failure (nil when every task succeeded).
func (m *MaestroRuntime) Close() error {
	_ = m.Wait(context.Background()) // ErrStopped here means already drained
	m.stopOnce.Do(func() {
		// Tell the maestro to drain: a Submit that raced past the Wait
		// above has either been admitted (the maestro finishes it before
		// exiting) or is still blocked on submitCh and backs out with
		// ErrStopped once stopped closes below. The maestro snapshots the
		// final stats before exiting, so closing stopped afterwards
		// publishes them to Stats callers.
		close(m.drain)
		m.maestroW.Wait()
		close(m.stopped)
		close(m.readyCh)
	})
	m.workerWG.Wait()
	return m.failure()
}

// maestro owns all dependency state; it is the software Task Maestro.
func (m *MaestroRuntime) maestro() {
	defer m.maestroW.Done()
	segs := make(map[Key]*segState)
	var (
		stats    Stats
		inFlight int
		barriers []chan struct{}
	)
	release := func(node *taskNode) {
		if node.dc.Add(-1) == 0 {
			m.readyCh <- node
		}
	}
	pop := func(seg *segState) segWaiter {
		w := seg.ko[0]
		seg.ko = seg.ko[1:]
		if seg.poison != nil {
			w.node.poison.CompareAndSwap(nil, &taskFailure{err: seg.poison})
		}
		return w
	}
	finish := func(node *taskNode) {
		root := node.rootCause()
		switch {
		case node.wasSkipped:
			stats.Skipped++
		case node.err != nil:
			stats.Failed++
			m.firstErr.CompareAndSwap(nil, &taskFailure{err: node.err})
		default:
			stats.Executed++
		}
		inFlight--
		for _, d := range node.task.Deps {
			seg := segs[d.Key]
			if seg == nil {
				panic(fmt.Sprintf("starss: finished task %q references unknown key %v", node.handle.Name(), d.Key))
			}
			if root != nil && seg.poison == nil {
				seg.poison = root
			}
			if d.Mode == ModeIn {
				seg.rdrs--
				if seg.rdrs > 0 {
					continue
				}
				if !seg.ww {
					delete(segs, d.Key)
					continue
				}
				w := pop(seg)
				seg.isOut = true
				seg.ww = false
				release(w.node)
				continue
			}
			seg.isOut = false
			if len(seg.ko) == 0 {
				delete(segs, d.Key)
				continue
			}
			if seg.ko[0].wantsWrite {
				w := pop(seg)
				seg.isOut = true
				release(w.node)
				continue
			}
			for len(seg.ko) > 0 && !seg.ko[0].wantsWrite {
				w := pop(seg)
				seg.rdrs++
				release(w.node)
			}
			if len(seg.ko) > 0 {
				seg.ww = true
			}
		}
		node.handle.complete(node.err)
		<-m.window
		if inFlight == 0 {
			for _, b := range barriers {
				close(b)
			}
			barriers = barriers[:0]
		}
	}
	for {
		select {
		case <-m.drain:
			for inFlight > 0 {
				finish(<-m.doneCh)
			}
			for _, b := range barriers {
				close(b)
			}
			stats.Retried = m.retried.Load()
			m.final = stats
			return
		case reply := <-m.statsCh:
			reply <- stats
		case reply := <-m.barrier:
			if inFlight == 0 {
				close(reply)
			} else {
				barriers = append(barriers, reply)
			}
		case node := <-m.submitCh:
			stats.Submitted++
			inFlight++
			if inFlight > stats.MaxInFlight {
				stats.MaxInFlight = inFlight
			}
			dc := int32(0)
			for _, d := range node.task.Deps {
				seg := segs[d.Key]
				wantsWrite := d.Mode != ModeIn
				if seg == nil {
					seg = &segState{}
					segs[d.Key] = seg
					if wantsWrite {
						seg.isOut = true
					} else {
						seg.rdrs = 1
					}
					continue
				}
				// Joining a still-live poisoned segment taints the task,
				// mirroring Runtime.checkDeps.
				if seg.poison != nil {
					node.poison.CompareAndSwap(nil, &taskFailure{err: seg.poison})
				}
				if !wantsWrite {
					if !seg.isOut && !seg.ww {
						seg.rdrs++
					} else {
						seg.ko = append(seg.ko, segWaiter{node: node})
						dc++
					}
					continue
				}
				seg.ko = append(seg.ko, segWaiter{node: node, wantsWrite: true})
				dc++
				if !seg.isOut {
					seg.ww = true
				}
			}
			node.dc.Store(dc)
			if dc == 0 {
				m.readyCh <- node
			} else {
				stats.Hazards++
			}
		case node := <-m.doneCh:
			finish(node)
		}
	}
}

// worker mirrors Runtime.worker, reporting completion to the maestro.
func (m *MaestroRuntime) worker() {
	defer m.workerWG.Done()
	depth := m.cfg.BufferingDepth
	if depth <= 1 {
		for node := range m.readyCh {
			prefetchNode(node)
			m.runBody(node)
		}
		return
	}
	local := make(chan *taskNode, depth-1)
	var ctlWG sync.WaitGroup
	ctlWG.Add(1)
	go func() {
		defer ctlWG.Done()
		defer close(local)
		for node := range m.readyCh {
			prefetchNode(node)
			local <- node
		}
	}()
	for node := range local {
		m.runBody(node)
	}
	ctlWG.Wait()
}

func (m *MaestroRuntime) runBody(node *taskNode) {
	m.exec.runNode(node, -1)
	m.doneCh <- node
}
