package core

import (
	"nexuspp/internal/sim"
	"nexuspp/internal/trace"
	"nexuspp/internal/workload"
)

// MasterCore models the core that executes the main thread: it prepares
// Task Descriptors (30 ns each in the paper's estimate, compensating for
// the off-chip communication Nexus needed) and submits them to the Task
// Maestro over the on-chip bus. It stalls while the TDs Sizes list is full.
type MasterCore struct {
	eng *sim.Engine
	sys *System
	src workload.Source

	// pending is the descriptor in the master's hands, from the moment the
	// source yields it until the bus has delivered it; havePending is set
	// while it is prepared and waiting for FIFO space.
	pending     trace.TaskSpec
	havePending bool
	prepared    func() // bound once
	delivered   func() // bound once

	submitted  uint64
	stallSince sim.Time
	stallTime  sim.Time
	done       bool
}

func newMasterCore(eng *sim.Engine, sys *System, src workload.Source) *MasterCore {
	mc := &MasterCore{eng: eng, sys: sys, src: src, stallSince: -1}
	mc.prepared = mc.finishPrepare
	mc.delivered = mc.finishSubmit
	return mc
}

// start begins the generate-and-submit loop at time zero.
func (mc *MasterCore) start() {
	mc.eng.After(0, mc.prepareNext)
}

// Submitted returns the number of descriptors delivered to the Maestro.
func (mc *MasterCore) Submitted() uint64 { return mc.submitted }

// StallTime returns the cumulative time spent stalled on a full TDs Sizes
// list.
func (mc *MasterCore) StallTime() sim.Time { return mc.stallTime }

// Done reports whether the source is exhausted and fully submitted.
func (mc *MasterCore) Done() bool { return mc.done }

func (mc *MasterCore) prepareNext() {
	spec, ok := mc.src.Next()
	if !ok {
		mc.done = true
		return
	}
	prep := mc.sys.cfg.TaskPrep
	if mc.sys.cfg.DisableTaskPrep {
		prep = 0
	}
	mc.pending = spec
	mc.eng.After(prep, mc.prepared)
}

func (mc *MasterCore) finishPrepare() {
	mc.havePending = true
	mc.trySubmit()
}

// trySubmit sends the prepared descriptor when the Maestro can accept it;
// otherwise the master stalls until the Get TDs path drains (retried via
// the system's onSubmitSpace hook).
func (mc *MasterCore) trySubmit() {
	if !mc.havePending {
		return
	}
	if !mc.sys.maestro.canAcceptSubmission() {
		if mc.stallSince < 0 {
			mc.stallSince = mc.eng.Now()
		}
		return
	}
	if mc.stallSince >= 0 {
		mc.stallTime += mc.eng.Now() - mc.stallSince
		mc.stallSince = -1
	}
	mc.havePending = false
	mc.sys.bus.Submit(len(mc.pending.Params), mc.delivered)
}

func (mc *MasterCore) finishSubmit() {
	mc.submitted++
	mc.sys.maestro.submitDelivered(mc.pending)
	// The master drives the bus itself, so it prepares the next
	// descriptor only after this transfer completes; the Get TDs block
	// decouples it from the Maestro's processing, not from the bus.
	mc.prepareNext()
}
