package starss

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Task-graph recording and the "wait on" synchronisation pragma.

// WaitOn blocks until every previously submitted task that accesses any of
// the given keys has completed — StarSs's "wait on" pragma, a targeted
// alternative to the full Wait. Like Wait, it observes every Submit that
// returned before the call, returns ctx.Err() if the context is cancelled
// first, and returns ErrStopped when the runtime is already closed instead
// of silently succeeding. An empty key set is a no-op. A nil ctx means
// context.Background().
func (rt *Runtime) WaitOn(ctx context.Context, keys ...Key) error {
	if len(keys) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-rt.stopped:
		return ErrStopped
	default:
	}
	// Register before probing: the finish path only takes coord when it
	// sees a positive waiter count, so the count must be visible before
	// the segments this waiter saw busy can drain.
	reply := make(chan struct{})
	rt.coord.Lock()
	rt.waiterCount.Add(1)
	if rt.quiet(keys) {
		rt.waiterCount.Add(-1)
		rt.coord.Unlock()
		return nil
	}
	rt.waiters = append(rt.waiters, waitReq{keys: keys, reply: reply})
	rt.coord.Unlock()
	select {
	case <-reply:
		return nil
	case <-ctx.Done():
	}
	// Deregister, unless a finisher signalled us concurrently — then the
	// wait in fact completed and the cancellation lost the race.
	rt.coord.Lock()
	for i := range rt.waiters {
		if rt.waiters[i].reply == reply {
			rt.waiters = append(rt.waiters[:i], rt.waiters[i+1:]...)
			rt.waiterCount.Add(-1)
			rt.coord.Unlock()
			return ctx.Err()
		}
	}
	rt.coord.Unlock()
	return nil
}

type waitReq struct {
	keys  []Key
	reply chan struct{}
}

// GraphEdge is one recorded dependency: the task To had to wait for (or
// read the output of) the task From. Indices are submission order.
type GraphEdge struct {
	From, To int
}

// Graph returns the recorded task graph: per-task names and the dependency
// edges, in submission order. Recording must have been enabled with
// Config.RecordGraph; otherwise both slices are empty. Call after Wait or
// Close for a complete graph.
func (rt *Runtime) Graph() (names []string, edges []GraphEdge) {
	if rt.recorder == nil {
		return nil, nil
	}
	rt.recorder.mu.Lock()
	defer rt.recorder.mu.Unlock()
	names = append([]string(nil), rt.recorder.names...)
	edges = append([]GraphEdge(nil), rt.recorder.edges...)
	return names, edges
}

// ExportDOT writes the recorded task graph in Graphviz DOT format.
func (rt *Runtime) ExportDOT(w io.Writer) error {
	names, edges := rt.Graph()
	if _, err := fmt.Fprintln(w, "digraph starss {"); err != nil {
		return err
	}
	for i, n := range names {
		label := n
		if label == "" {
			label = fmt.Sprintf("task%d", i)
		}
		if _, err := fmt.Fprintf(w, "  t%d [label=%q];\n", i, label); err != nil {
			return err
		}
	}
	sorted := append([]GraphEdge(nil), edges...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].From != sorted[b].From {
			return sorted[a].From < sorted[b].From
		}
		return sorted[a].To < sorted[b].To
	})
	for _, e := range sorted {
		if _, err := fmt.Fprintf(w, "  t%d -> t%d;\n", e.From, e.To); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// graphRecorder tracks dependency edges during submission, mirroring the
// sequential-replay oracle: a reader depends on the last writer of each
// key; a writer additionally depends on every reader since. With several
// goroutines submitting concurrently, the recorded order is the order in
// which submissions reach the recorder.
type graphRecorder struct {
	mu           sync.Mutex
	names        []string
	edges        []GraphEdge
	lastWriter   map[Key]int
	readersSince map[Key][]int
}

func newGraphRecorder() *graphRecorder {
	return &graphRecorder{
		lastWriter:   make(map[Key]int),
		readersSince: make(map[Key][]int),
	}
}

func (g *graphRecorder) record(node *taskNode) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := len(g.names)
	g.names = append(g.names, node.task.Name)
	seen := make(map[int]bool)
	addEdge := func(from int) {
		if from == id || seen[from] {
			return
		}
		seen[from] = true
		g.edges = append(g.edges, GraphEdge{From: from, To: id})
	}
	for _, d := range node.task.Deps {
		if d.Mode != ModeOut {
			if w, ok := g.lastWriter[d.Key]; ok {
				addEdge(w)
			}
		}
		if d.Mode != ModeIn {
			if w, ok := g.lastWriter[d.Key]; ok {
				addEdge(w)
			}
			for _, r := range g.readersSince[d.Key] {
				addEdge(r)
			}
			g.lastWriter[d.Key] = id
			g.readersSince[d.Key] = g.readersSince[d.Key][:0]
		} else {
			g.readersSince[d.Key] = append(g.readersSince[d.Key], id)
		}
	}
}
