// Package core implements the Nexus++ hardware task-management system — the
// paper's primary contribution — as a timed model on the discrete-event
// kernel of internal/sim.
//
// The model follows SSIII of the paper: a Task Maestro made of pipelined
// hardware blocks (Get TDs, Write TP, Check Deps, Schedule, Send TDs,
// Handle Finished) communicating through FIFO lists, a Task Pool indexed by
// task ID with dummy-task chains for wide parameter lists, a Dependence
// Table with separate chaining and kick-off lists extended by dummy entries,
// and one Task Controller per worker core providing double (in fact
// arbitrary) buffering.
package core

import (
	"fmt"

	"nexuspp/internal/mem"
	"nexuspp/internal/sim"
)

// Costs gives the per-operation service costs of the Task Maestro blocks in
// Nexus++ clock cycles. The hash-table costs follow the paper's rule that
// "the hash table access time equals the on-chip access time multiplied by
// the number of lookups required per access"; the remaining constants model
// the FIFO pushes/pops and per-TD table reads/writes each block performs.
type Costs struct {
	// WriteTPBase covers reading the TDs Sizes entry and the TDs Buffer.
	WriteTPBase int
	// WriteTPPerTD covers one TP Free Indices pop plus one Task Pool write,
	// charged per task descriptor (dummies included).
	WriteTPPerTD int
	// CheckDepsBase covers the New Tasks pop and the final DC test.
	CheckDepsBase int
	// CheckDepsPerAccess is one Dependence Table access (hash, chain-walk
	// step, entry update, kick-off append, dummy-entry allocation).
	CheckDepsPerAccess int
	// ScheduleCycles covers one Global Ready pop, one Worker Cores IDs pop
	// and one CiRdyTasks push.
	ScheduleCycles int
	// SendTDsBase covers request selection and the CiFinTasks write.
	SendTDsBase int
	// SendTDsPerTD is one Task Pool read per descriptor of the task.
	SendTDsPerTD int
	// SendTDsPerParam is the per-parameter word time of streaming the
	// descriptor to the Task Controller over the on-chip link.
	SendTDsPerParam int
	// SendTDsLinkSetup is the fixed link setup (handshake + header word).
	SendTDsLinkSetup int
	// HandleFinBase covers notification selection, the acknowledge, and the
	// CiFinTasks read.
	HandleFinBase int
	// HandleFinPerTD is one Task Pool access per descriptor (parameter
	// list read and entry deletion).
	HandleFinPerTD int
	// HandleFinPerAccess is one Dependence Table access (lookup step,
	// update, kick-off pop, waiter DC update).
	HandleFinPerAccess int
}

// DefaultCosts returns the cycle costs used throughout the evaluation.
func DefaultCosts() Costs {
	return Costs{
		WriteTPBase:        2,
		WriteTPPerTD:       2,
		CheckDepsBase:      1,
		CheckDepsPerAccess: 1,
		ScheduleCycles:     3,
		SendTDsBase:        2,
		SendTDsPerTD:       1,
		SendTDsPerParam:    1,
		SendTDsLinkSetup:   6,
		HandleFinBase:      3,
		HandleFinPerTD:     1,
		HandleFinPerAccess: 1,
	}
}

// Config collects every parameter of the Nexus++ system (the paper's
// Table IV) plus the experiment toggles used in SSV.
type Config struct {
	// Workers is the number of worker cores (the master core is separate).
	Workers int
	// BufferingDepth is the number of tasks a Task Controller may hold:
	// 1 disables prefetch overlap, 2 is the paper's double buffering.
	BufferingDepth int
	// NexusCycle is the Nexus++ clock period (2 ns at 500 MHz).
	NexusCycle sim.Time
	// TaskPoolEntries is the number of task descriptors the Task Pool
	// holds (1K in Table IV).
	TaskPoolEntries int
	// MaxParamsPerTD is the parameter capacity of one descriptor (8);
	// wider tasks chain dummy descriptors.
	MaxParamsPerTD int
	// DepTableEntries is the Dependence Table capacity (4K in Table IV).
	DepTableEntries int
	// KickOffSlots is the kick-off list capacity of one Dependence Table
	// entry (8); longer lists chain dummy entries.
	KickOffSlots int
	// TDsListEntries is the depth of the TDs Sizes list / TDs Buffer pair
	// between the Get TDs and Write TP blocks (1K one-byte sizes in
	// Table IV). The master core stalls when it fills.
	TDsListEntries int
	// TaskPrep is the master core's per-task preparation latency (30 ns);
	// DisableTaskPrep reproduces the paper's "disabling task preparation
	// delay" experiment.
	TaskPrep        sim.Time
	DisableTaskPrep bool
	// TablePorts models the read/write ports of the Task Pool and
	// Dependence Table SRAMs. 0 (the default) gives every Maestro block
	// its own port, the fully pipelined ideal; 1 makes each table
	// single-ported, so blocks touching the same table serialise — the
	// cheaper SRAM a real implementation would likely use. See the
	// ablation-ports experiment.
	TablePorts int
	// Mem configures the off-chip memory (set Mem.ContentionFree for the
	// paper's contention-free runs).
	Mem mem.MemConfig
	// Bus configures the master-to-maestro on-chip bus.
	Bus mem.BusConfig
	// Costs gives the per-block service costs.
	Costs Costs
	// RecordSchedule keeps per-task execution intervals so tests can
	// validate the run against the dependency-graph oracle. It costs
	// memory proportional to the task count.
	RecordSchedule bool

	// HardParamLimit disables the dummy-task mechanism: a task with more
	// than MaxParamsPerTD parameters aborts the run, reproducing the
	// original Nexus's fixed input/output limit ("not all StarSs
	// applications can be executed on a multicore system with Nexus").
	HardParamLimit bool
	// HardKickOffLimit disables the dummy-entry mechanism: a kick-off list
	// that would outgrow its fixed slots aborts the run, reproducing the
	// original Nexus's fixed dependency-count limit.
	HardKickOffLimit bool

	// RenameFalseDeps eliminates WAR/WAW hazards for pure writers by
	// opening fresh segment versions instead of waiting — the renaming
	// alternative the paper mentions and deliberately does not implement.
	// Each live version occupies a Dependence Table slot; see
	// DepTable.ProcessNew and the ablation-renaming experiment.
	RenameFalseDeps bool
}

// DefaultConfig returns the paper's Table IV configuration for the given
// number of worker cores, with double buffering enabled.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:         workers,
		BufferingDepth:  2,
		NexusCycle:      2 * sim.Nanosecond,
		TaskPoolEntries: 1024,
		MaxParamsPerTD:  8,
		DepTableEntries: 4096,
		KickOffSlots:    8,
		TDsListEntries:  1024,
		TaskPrep:        30 * sim.Nanosecond,
		Mem:             mem.DefaultMemConfig(),
		Bus:             mem.DefaultBusConfig(),
		Costs:           DefaultCosts(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Workers < 1:
		return fmt.Errorf("core: Workers = %d, need >= 1", c.Workers)
	case c.BufferingDepth < 1:
		return fmt.Errorf("core: BufferingDepth = %d, need >= 1", c.BufferingDepth)
	case c.TaskPoolEntries < 2:
		return fmt.Errorf("core: TaskPoolEntries = %d, need >= 2", c.TaskPoolEntries)
	case c.MaxParamsPerTD < 2:
		return fmt.Errorf("core: MaxParamsPerTD = %d, need >= 2 (one slot must remain for the dummy pointer)", c.MaxParamsPerTD)
	case c.DepTableEntries < 1:
		return fmt.Errorf("core: DepTableEntries = %d, need >= 1", c.DepTableEntries)
	case c.KickOffSlots < 1:
		return fmt.Errorf("core: KickOffSlots = %d, need >= 1", c.KickOffSlots)
	case c.TDsListEntries < 1:
		return fmt.Errorf("core: TDsListEntries = %d, need >= 1", c.TDsListEntries)
	case c.NexusCycle <= 0:
		return fmt.Errorf("core: NexusCycle = %v, need > 0", c.NexusCycle)
	case c.TaskPrep < 0:
		return fmt.Errorf("core: TaskPrep = %v, need >= 0", c.TaskPrep)
	case c.TablePorts < 0:
		return fmt.Errorf("core: TablePorts = %d, need >= 0", c.TablePorts)
	}
	return nil
}

// cycles converts a cycle count into simulated time.
func (c *Config) cycles(n int) sim.Time {
	return sim.Time(n) * c.NexusCycle
}
