package starss

// This file runs a released task's body, once: a Nexus++ worker core either
// completes the task it accepted or the chip has failed. Retries, deadlines
// and injected faults are policy the body's owner wraps around Do (body.go).
// What stays is what a worker must survive: a panic, recovered into
// ErrTaskPanicked.

import "fmt"

// runNode executes one released node's lifecycle up to (not including) the
// handle-finished path, recording the outcome on the node: skipped when a
// transitive dependency poisoned it, failed when its context was cancelled
// before it started, executed as it stands when it has no body (a WaitOn),
// and otherwise the body's result, a panic recovered into ErrTaskPanicked.
func runNode(node *taskNode) {
	if p := node.poison.Load(); p != nil {
		node.wasSkipped = true
		node.err = fmt.Errorf("%w: task %s skipped: %w", ErrDependencyFailed, node.handle.Name(), p.err)
		return
	}
	if err := node.ctx.Err(); err != nil {
		node.err = fmt.Errorf("starss: task %s cancelled before start: %w", node.handle.Name(), err)
		return
	}
	if node.task.Do == nil {
		// A WaitOn: being ready was all it was submitted for.
		return
	}
	defer func() {
		if r := recover(); r != nil {
			node.err = fmt.Errorf("%w: task %s: %v", ErrTaskPanicked, node.handle.Name(), r)
		}
	}()
	node.err = node.task.Do(node.ctx)
}
