// Package mem models the memory hierarchy of the paper's evaluation
// platform: a 32-bank off-chip memory in which "no more than 32 tasks can
// access the memory at a given time" (12 ns per 128-byte chunk, 10.67 GB/s
// aggregate), and the 8-byte-wide on-chip bus over which the master core
// submits Task Descriptors to the Task Maestro (5-cycle handshake plus the
// descriptor words).
package mem

import "nexuspp/internal/sim"

// timedSlots is a Resource whose slots are held for a stated time: a hold
// queues for a slot in FIFO order, keeps it for its duration, releases it
// and only then calls back. Both models in this package have that shape
// (32 memory ports, one bus line).
//
// A hold's state — its duration and the caller's callback — lives in a
// record that is recycled through a free list, with its two event
// callbacks bound when the record is first made. The caller's callback is
// therefore never wrapped, and a hold allocates nothing once as many
// records exist as holds are ever outstanding at once.
type timedSlots struct {
	eng  *sim.Engine
	res  *sim.Resource
	free []*hold

	// Statistics.
	completed uint64
	heldTime  sim.Time
}

type hold struct {
	ts       *timedSlots
	d        sim.Time
	done     func()
	granted  func() // h.start, bound once
	released func() // h.finish, bound once
}

func newTimedSlots(eng *sim.Engine, name string, slots int) *timedSlots {
	return &timedSlots{eng: eng, res: sim.NewResource(name, slots)}
}

// hold occupies one slot for d, then calls done.
func (ts *timedSlots) hold(d sim.Time, done func()) {
	var h *hold
	if n := len(ts.free); n > 0 {
		h, ts.free = ts.free[n-1], ts.free[:n-1]
	} else {
		h = &hold{ts: ts}
		h.granted, h.released = h.start, h.finish
	}
	h.d, h.done = d, done
	ts.res.Acquire(h.granted)
}

func (h *hold) start() { h.ts.eng.After(h.d, h.released) }

func (h *hold) finish() {
	ts, done := h.ts, h.done
	ts.completed++
	ts.heldTime += h.d
	h.done = nil
	ts.free = append(ts.free, h)
	ts.res.Release()
	done()
}

// MemConfig describes the off-chip memory.
type MemConfig struct {
	// Ports is the number of concurrent accessors (banks with one
	// read/write port each). The paper uses 32.
	Ports int
	// ChunkBytes and ChunkTime give the transfer quantum: 12ns per
	// 128-byte chunk in the paper's CACTI 5.3 model.
	ChunkBytes int
	ChunkTime  sim.Time
	// ContentionFree disables the port limit, reproducing the paper's
	// "assuming contention-free memory" experiments.
	ContentionFree bool
}

// DefaultMemConfig returns the paper's Table IV memory parameters.
func DefaultMemConfig() MemConfig {
	return MemConfig{Ports: 32, ChunkBytes: 128, ChunkTime: 12 * sim.Nanosecond}
}

// Memory is the off-chip memory model.
type Memory struct {
	cfg   MemConfig
	eng   *sim.Engine
	ports *timedSlots // nil when contention-free
}

// NewMemory builds a memory bound to eng. A zero Ports/ChunkBytes/ChunkTime
// field selects the paper default.
func NewMemory(eng *sim.Engine, cfg MemConfig) *Memory {
	def := DefaultMemConfig()
	if cfg.Ports == 0 {
		cfg.Ports = def.Ports
	}
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = def.ChunkBytes
	}
	if cfg.ChunkTime == 0 {
		cfg.ChunkTime = def.ChunkTime
	}
	m := &Memory{cfg: cfg, eng: eng}
	if !cfg.ContentionFree {
		m.ports = newTimedSlots(eng, "memory-ports", cfg.Ports)
	}
	return m
}

// Config returns the effective configuration.
func (m *Memory) Config() MemConfig { return m.cfg }

// TransferTime returns the contention-free duration of moving n bytes
// (whole chunks; zero bytes take zero time).
func (m *Memory) TransferTime(bytes int) sim.Time {
	if bytes <= 0 {
		return 0
	}
	chunks := (bytes + m.cfg.ChunkBytes - 1) / m.cfg.ChunkBytes
	return sim.Time(chunks) * m.cfg.ChunkTime
}

// Access models one task-side memory phase of the given contention-free
// duration: it waits for a free port (FIFO order), holds it for duration,
// then invokes done. A zero duration completes after the current event
// (never synchronously) so callers can rely on consistent ordering.
func (m *Memory) Access(duration sim.Time, done func()) {
	if m.ports == nil {
		m.eng.After(duration, done)
		return
	}
	m.ports.hold(duration, done)
}

// InUse returns the number of busy ports (always 0 when contention-free).
func (m *Memory) InUse() int {
	if m.ports == nil {
		return 0
	}
	return m.ports.res.InUse()
}

// HighWater returns the maximum number of concurrently busy ports.
func (m *Memory) HighWater() int {
	if m.ports == nil {
		return 0
	}
	return m.ports.res.HighWater()
}

// Waits returns how many accesses had to queue for a port.
func (m *Memory) Waits() uint64 {
	if m.ports == nil {
		return 0
	}
	return m.ports.res.Waits()
}

// BusConfig describes the on-chip master-to-maestro bus.
type BusConfig struct {
	// CycleTime is one Nexus++ clock cycle (2 ns at 500 MHz).
	CycleTime sim.Time
	// HandshakeCycles is the fixed per-submission setup cost (5 cycles).
	HandshakeCycles int
	// HeaderWords is the number of words before the parameters (1: the
	// task ID + function pointer word).
	HeaderWords int
}

// DefaultBusConfig returns the paper's bus parameters. Note: the paper's
// text says each 8-byte word takes 2 cycles, but its worked examples (a
// 4-parameter task takes 10 cycles, an 8-parameter one 14) fit
// cycles = handshake(5) + header(1) + nParams; we follow the examples.
func DefaultBusConfig() BusConfig {
	return BusConfig{CycleTime: 2 * sim.Nanosecond, HandshakeCycles: 5, HeaderWords: 1}
}

// Bus is a single-master serial link: one submission occupies it at a time,
// later submissions queue in FIFO order.
type Bus struct {
	cfg  BusConfig
	line *timedSlots
}

// NewBus builds a bus bound to eng; a zero config field selects its default.
func NewBus(eng *sim.Engine, cfg BusConfig) *Bus {
	def := DefaultBusConfig()
	if cfg.CycleTime == 0 {
		cfg.CycleTime = def.CycleTime
	}
	if cfg.HandshakeCycles == 0 {
		cfg.HandshakeCycles = def.HandshakeCycles
	}
	if cfg.HeaderWords == 0 {
		cfg.HeaderWords = def.HeaderWords
	}
	return &Bus{cfg: cfg, line: newTimedSlots(eng, "onchip-bus", 1)}
}

// Config returns the effective configuration.
func (b *Bus) Config() BusConfig { return b.cfg }

// SubmitTime returns the bus occupancy of submitting a descriptor with
// nParams parameters: (handshake + header + nParams) cycles.
func (b *Bus) SubmitTime(nParams int) sim.Time {
	cycles := b.cfg.HandshakeCycles + b.cfg.HeaderWords + nParams
	return sim.Time(cycles) * b.cfg.CycleTime
}

// Submit occupies the bus for SubmitTime(nParams) and then calls delivered.
func (b *Bus) Submit(nParams int, delivered func()) {
	b.line.hold(b.SubmitTime(nParams), delivered)
}

// Transfers returns the number of completed submissions.
func (b *Bus) Transfers() uint64 { return b.line.completed }

// BusyTime returns cumulative bus occupancy.
func (b *Bus) BusyTime() sim.Time { return b.line.heldTime }
