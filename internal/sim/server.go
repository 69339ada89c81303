package sim

// Server models a hardware block that processes one item at a time with a
// per-item latency, the shape of every Task Maestro block in the paper
// (Write TP, Check Deps, Schedule, Send TDs, Handle Finished). A block owns
// a Server, hands it its completion handler once at construction, keeps the
// item in service in its own fields (the block's register), and calls Start
// with the item's computed service latency; the handler runs when the
// latency elapses. Kick is the idempotent "try to make progress" entry
// point blocks register on their input FIFOs.
type Server struct {
	eng  *Engine
	name string
	busy bool

	done     func() // the owning block's completion handler
	complete func() // s.finish, bound once so Start allocates nothing
	latency  Time   // of the item in service

	// Statistics.
	served   uint64
	busyTime Time
}

// NewServer returns an idle server bound to eng that invokes done each time
// a service completes.
func NewServer(eng *Engine, name string, done func()) *Server {
	s := &Server{eng: eng, name: name, done: done}
	s.complete = s.finish
	return s
}

// Name returns the server's diagnostic name.
func (s *Server) Name() string { return s.name }

// Busy reports whether an item is currently in service.
func (s *Server) Busy() bool { return s.busy }

// Served returns the number of completed service operations.
func (s *Server) Served() uint64 { return s.served }

// BusyTime returns the cumulative time spent in service.
func (s *Server) BusyTime() Time { return s.busyTime }

// Utilization returns busy time as a fraction of total elapsed time.
func (s *Server) Utilization(total Time) float64 {
	if total <= 0 {
		return 0
	}
	return float64(s.busyTime) / float64(total)
}

// Start begins servicing an item for the given latency; the completion
// handler runs when it elapses. It panics when the server is already busy:
// callers must check Busy (via their Kick pattern) first.
func (s *Server) Start(latency Time) {
	if s.busy {
		panic("sim: Server.Start while busy: " + s.name)
	}
	if latency < 0 {
		panic("sim: negative latency on " + s.name)
	}
	s.busy = true
	s.latency = latency
	s.eng.After(latency, s.complete)
}

func (s *Server) finish() {
	s.busy = false
	s.served++
	s.busyTime += s.latency
	s.done()
}
