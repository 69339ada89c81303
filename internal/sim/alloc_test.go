package sim

import "testing"

// The engine's contract with the hardware models: scheduling and firing a
// callback that was bound beforehand costs a heap sift and an indirect
// call, no allocation. The heap's backing array is grown during warm-up.

func TestEngineScheduleFireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	eng := NewEngine()
	fired := 0
	tick := func() { fired++ }
	round := func() {
		for i := 0; i < 64; i++ {
			eng.After(Time(64-i)*Nanosecond, tick)
		}
		eng.Run()
	}
	round()
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("64 schedule+fire rounds allocated %.1f times, want 0", got)
	}
	// One explicit warm-up, AllocsPerRun's own warm-up, 100 measured rounds.
	if fired != 64*102 {
		t.Errorf("fired %d events, want %d", fired, 64*102)
	}
}

func TestServerStartAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	eng := NewEngine()
	served := 0
	s := NewServer(eng, "blk", func() { served++ })
	serve := func() {
		s.Start(3 * Nanosecond)
		eng.Run()
	}
	serve()
	if got := testing.AllocsPerRun(100, serve); got != 0 {
		t.Errorf("Server.Start allocated %.1f times per service, want 0", got)
	}
	if s.Served() != uint64(served) || served != 102 {
		t.Errorf("served %d (handler ran %d times), want 102", s.Served(), served)
	}
}
