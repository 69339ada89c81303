// Package trace defines the task model consumed by every simulator in this
// repository.
//
// The Nexus++ paper drives its SystemC model from a trace of a parallel
// H.264 decoder captured on a Cell processor: per task, the trace records
// the input/output list (base address, size, access mode), the execution
// time, and the time spent reading/writing inputs/outputs from/to memory.
// That trace is not publicly available, so every workload here is
// generated from a seed, and this package provides the timing samplers
// (see times.go) that reproduce its published statistics: 8160 tasks (one
// full-HD frame of 120x68 macroblocks), an average execution time of
// 11.8us and an average memory time of 7.5us.
package trace

import (
	"fmt"
	"sort"

	"nexuspp/internal/sim"
)

// AccessMode is the declared direction of a task parameter, matching the
// input/output/inout access modes of StarSs pragmas.
type AccessMode uint8

const (
	// In marks a parameter that is only read by the task.
	In AccessMode = iota
	// Out marks a parameter that is only written by the task.
	Out
	// InOut marks a parameter that is read and written by the task.
	InOut
)

// Reads reports whether the mode observes the previous value.
func (m AccessMode) Reads() bool { return m == In || m == InOut }

// Writes reports whether the mode produces a new value.
func (m AccessMode) Writes() bool { return m == Out || m == InOut }

// String returns the StarSs pragma spelling of the mode.
func (m AccessMode) String() string {
	switch m {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Param is one entry of a task's input/output list: a memory segment
// identified by its base address, with a size and an access mode. Nexus++
// resolves dependencies by comparing base addresses, exactly as the paper's
// SSIII-B states.
type Param struct {
	Addr uint64
	Size uint32
	Mode AccessMode
}

// TaskSpec fully describes one task as recorded in a trace: what it
// accesses and how long its three phases take on the reference machine.
// MemRead and MemWrite are contention-free durations; the memory model adds
// queueing when more tasks access memory than the banks allow.
type TaskSpec struct {
	// ID is the task's serial number in program (submission) order.
	ID uint64
	// Func identifies the task function (the paper's *f function pointer).
	Func uint32
	// Params is the input/output list.
	Params []Param
	// Exec is the pure computation time on a worker core.
	Exec sim.Time
	// MemRead is the time spent fetching inputs from off-chip memory.
	MemRead sim.Time
	// MemWrite is the time spent writing outputs back to memory.
	MemWrite sim.Time
}

// NumParams returns the length of the input/output list.
func (t *TaskSpec) NumParams() int { return len(t.Params) }

// Validate checks structural invariants every simulator relies on:
// non-negative durations and no duplicate addresses in the parameter list
// (a task depending on itself is meaningless; the StarSs compiler merges
// duplicate accesses into a single inout parameter).
func (t *TaskSpec) Validate() error {
	if t.Exec < 0 || t.MemRead < 0 || t.MemWrite < 0 {
		return fmt.Errorf("trace: task %d has negative duration", t.ID)
	}
	if len(t.Params) == 0 {
		return fmt.Errorf("trace: task %d has no parameters", t.ID)
	}
	if len(t.Params) > 1 {
		addrs := make([]uint64, len(t.Params))
		for i, p := range t.Params {
			addrs[i] = p.Addr
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for i := 1; i < len(addrs); i++ {
			if addrs[i] == addrs[i-1] {
				return fmt.Errorf("trace: task %d declares address %#x twice", t.ID, addrs[i])
			}
		}
	}
	return nil
}

// Trace is an in-memory task trace in submission order.
type Trace struct {
	// Name describes the workload the trace was generated from.
	Name string
	// Tasks holds the task descriptors in submission order.
	Tasks []TaskSpec
}
