package backend

import (
	"context"
	"strings"
	"testing"

	"nexuspp/internal/depgraph"
	"nexuspp/internal/workload"
)

// TestRegistryShape pins the registry contract: all five engines present,
// sorted, and resolvable by name.
func TestRegistryShape(t *testing.T) {
	want := []string{"maestro", "nexus", "nexuspp", "runtime", "softrts"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
		if b.Describe() == "" {
			t.Errorf("backend %q has an empty description", name)
		}
	}
}

// TestLookupUnknownListsValidNames pins the satellite requirement: unknown
// backend and workload names fail with a message enumerating the valid ones.
func TestLookupUnknownListsValidNames(t *testing.T) {
	if _, err := Lookup("nexus++"); err == nil || !strings.Contains(err.Error(), "nexuspp") {
		t.Errorf("Lookup(nexus++) error = %v, want the valid-name list", err)
	}
	if _, err := LookupWorkload("wave"); err == nil || !strings.Contains(err.Error(), "wavefront") {
		t.Errorf("LookupWorkload(wave) error = %v, want the valid-name list", err)
	}
}

// TestWorkloadRegistry: every workload is named, described and builds a
// non-empty source, and the names are sorted and unique, so listings and
// Lookup errors enumerate them in one order and a lookup cannot shadow an
// entry.
func TestWorkloadRegistry(t *testing.T) {
	ws := Workloads()
	if len(ws) == 0 {
		t.Fatal("no workloads registered")
	}
	for i, w := range ws {
		if i > 0 && ws[i-1].Name >= w.Name {
			t.Errorf("workload %q follows %q: names must be sorted and unique", w.Name, ws[i-1].Name)
		}
		if w.Name == "" || w.Description == "" {
			t.Errorf("workload %q has an empty name or description", w.Name)
		}
		src := w.New(1)
		if src.Total() <= 0 {
			t.Errorf("workload %q: Total = %d", w.Name, src.Total())
		}
	}
}

// TestBackendConformance is the cross-backend contract: every registered
// backend runs wavefront and Gaussian elimination, executes exactly the
// oracle's task count, and — for the simulated engines — never reports a
// makespan below the oracle's critical path (no simulator may beat the
// infinite-core schedule of its own workload). The executing runtimes run
// in zero-cost mode so the suite stays fast; under `go test -race` this is
// also the race check of the replay adapter on real dependency patterns.
func TestBackendConformance(t *testing.T) {
	cases := []struct {
		name string
		mk   func() workload.Source
	}{
		{"wavefront", func() workload.Source { return workload.Wavefront(7) }},
		{"gaussian-60", func() workload.Source {
			return workload.Gaussian(workload.GaussianConfig{N: 60})
		}},
	}
	for _, wc := range cases {
		oracle := depgraph.Build(wc.mk()).Analyze()
		total := uint64(wc.mk().Total())
		for _, b := range All() {
			b := b
			t.Run(b.Name()+"/"+wc.name, func(t *testing.T) {
				rep, err := b.Run(context.Background(),
					Config{Workers: 8, ZeroCost: true}, wc.mk())
				if err != nil {
					// The original Nexus legitimately rejects workloads that
					// exceed its hard structure limits; every other engine
					// must execute everything.
					if b.Name() == "nexus" {
						t.Logf("nexus rejected %s: %v", wc.name, err)
						return
					}
					t.Fatalf("%s on %s: %v", b.Name(), wc.name, err)
				}
				if rep.TasksExecuted != total {
					t.Errorf("TasksExecuted = %d, oracle task count = %d",
						rep.TasksExecuted, total)
				}
				if rep.Backend != b.Name() {
					t.Errorf("Report.Backend = %q, want %q", rep.Backend, b.Name())
				}
				if rep.Simulated {
					if rep.Makespan < oracle.CriticalPath {
						t.Errorf("simulated makespan %v beats the oracle critical path %v",
							rep.Makespan, oracle.CriticalPath)
					}
					if rep.Wall != 0 {
						t.Errorf("simulated backend reported wall time %v", rep.Wall)
					}
				} else {
					if rep.Wall <= 0 {
						t.Errorf("executing backend reported wall time %v", rep.Wall)
					}
					if rep.Makespan != 0 {
						t.Errorf("executing backend reported simulated makespan %v", rep.Makespan)
					}
				}
				if rep.Detail == nil {
					t.Error("Report.Detail is nil")
				}
				if rep.Throughput() <= 0 {
					t.Errorf("Throughput() = %v", rep.Throughput())
				}
			})
		}
	}
}

// TestExecutingBackendsReplayTracedTiming runs both executing engines with
// synthesized timed bodies (scaled down 50x) and checks the wall time is at
// least the scaled critical path: a real schedule cannot beat the oracle
// either. Together with the zero-cost conformance above this pins every
// engine — simulated or executing — to the oracle bound.
func TestExecutingBackendsReplayTracedTiming(t *testing.T) {
	src := func() workload.Source {
		return workload.Gaussian(workload.GaussianConfig{N: 40})
	}
	oracle := depgraph.Build(src()).Analyze()
	const scale = 50
	scaledCP := oracle.CriticalPath.Nanoseconds() / scale
	for _, name := range []string{"runtime", "maestro"} {
		t.Run(name, func(t *testing.T) {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Run(context.Background(),
				Config{Workers: 4, TimeScale: scale}, src())
			if err != nil {
				t.Fatal(err)
			}
			if rep.TasksExecuted != uint64(src().Total()) {
				t.Errorf("TasksExecuted = %d, want %d", rep.TasksExecuted, src().Total())
			}
			if got := float64(rep.Wall.Nanoseconds()); got < scaledCP {
				t.Errorf("wall time %v beats the scaled critical path %.0fns", rep.Wall, scaledCP)
			}
		})
	}
}
