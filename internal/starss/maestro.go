package starss

// This file is the single-maestro baseline, the same way internal/nexus1
// and internal/softrts are the systems the paper compares against: one
// goroutine performs every Check Deps and every Handle Finished, fed one
// task at a time over two unbuffered channels — the software serialization
// bottleneck the paper's SSI motivation describes and the banked Runtime
// removes. Everything else is the shared Runtime, and the maestro calls the
// same resolveNew/resolveFinished — Check Deps on a chunk of one — so a
// throughput ratio between New and NewMaestro isolates the two channel
// rendezvous per task, the per-task bank locking — and what only a
// worker resolving its own finish can do: keep the successor it released,
// which the maestro has to queue (finish). Use NewMaestro
// only to measure against it (nexusbench exp shards,
// BenchmarkShardScalability, bench/'s starss.vs_maestro).

// funnel routes all dependency resolution of a Runtime through one
// goroutine. A Runtime with a nil funnel resolves in the calling goroutine.
type funnel struct {
	submitCh chan []taskNode // admitted tasks, one a rendezvous, for Check Deps
	doneCh   chan *taskNode  // finished tasks, for Handle Finished
	quit     chan struct{}   // see stop
}

// NewMaestro starts the single-maestro baseline: a Runtime with one
// dependence bank whose every resolution funnels through one goroutine.
func NewMaestro(cfg Config) *Runtime {
	f := &funnel{
		submitCh: make(chan []taskNode),
		doneCh:   make(chan *taskNode),
		quit:     make(chan struct{}),
	}
	rt := newRuntime(cfg, 1, f)
	go f.run(rt)
	return rt
}

// run is the maestro. Nothing it calls blocks on another task's progress:
// dispatch has room for every in-flight task (and finishes a WaitOn in
// place, without a trip through doneCh) and the token return takes only
// coord and the window's wait list, so workers parked on doneCh always get
// through. One goroutine resolving in arrival order is also all the fence a
// WaitOn needs: its task is checked after every task submitted before it.
func (f *funnel) run(rt *Runtime) {
	for {
		select {
		case nodes := <-f.submitCh:
			rt.resolveNew(nodes)
		case node := <-f.doneCh:
			rt.finish(node, -1) // not a worker: submit-side event lane
		case <-f.quit:
			return
		}
	}
}

// stop ends the maestro; Close calls it once every task has finished and
// every worker has exited, so nobody is left sending to it. The send
// returns when the maestro has taken it, with nothing left to do but return.
func (f *funnel) stop() { f.quit <- struct{}{} }
