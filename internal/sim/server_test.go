package sim

import "testing"

func TestServerBasic(t *testing.T) {
	eng := NewEngine()
	done := 0
	s := NewServer(eng, "blk", func() { done++ })
	s.Start(10 * Nanosecond)
	if !s.Busy() {
		t.Fatal("server should be busy after Start")
	}
	eng.Run()
	if done != 1 || s.Busy() {
		t.Fatalf("done=%d busy=%v", done, s.Busy())
	}
	if s.Served() != 1 || s.BusyTime() != 10*Nanosecond {
		t.Fatalf("served=%d busyTime=%v", s.Served(), s.BusyTime())
	}
	if u := s.Utilization(20 * Nanosecond); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := s.Utilization(0); u != 0 {
		t.Fatalf("utilization(0) = %v, want 0", u)
	}
}

func TestServerDoubleStartPanics(t *testing.T) {
	eng := NewEngine()
	s := NewServer(eng, "blk", func() {})
	s.Start(1)
	defer func() {
		if recover() == nil {
			t.Error("Start while busy did not panic")
		}
	}()
	s.Start(1)
}

func TestServerPipelinesAcrossItems(t *testing.T) {
	eng := NewEngine()
	var s *Server
	var completions []Time
	remaining := 3
	feed := func() {
		if remaining == 0 {
			return
		}
		remaining--
		s.Start(5 * Nanosecond)
	}
	// The handler sees an idle server, so it may start the next item.
	s = NewServer(eng, "blk", func() {
		completions = append(completions, eng.Now())
		feed()
	})
	feed()
	eng.Run()
	want := []Time{5 * Nanosecond, 10 * Nanosecond, 15 * Nanosecond}
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions = %v, want %v", completions, want)
		}
	}
	if s.Served() != 3 || s.BusyTime() != 15*Nanosecond {
		t.Fatalf("served=%d busyTime=%v", s.Served(), s.BusyTime())
	}
}
