package core_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nexuspp/internal/core"
	"nexuspp/internal/depgraph"
	"nexuspp/internal/nexus1"
	"nexuspp/internal/workload"
)

// The simulator's host cost may change; what it simulates may not. The
// values in testdata/bitident.json were captured from the tree before the
// simulator was optimised for host speed, and a host-speed change must
// reproduce every one of them. -update rewrites the file and is for changes
// that mean to alter the model.
var update = flag.Bool("update", false, "rewrite testdata/bitident.json from this tree")

const bitidentFile = "testdata/bitident.json"

// simRecord is everything core.Run reports that a picosecond of drift, one
// elided event or one reordered grant would move.
type simRecord struct {
	Err string `json:",omitempty"`

	MakespanPS      int64
	Events          uint64
	TasksExecuted   uint64
	CoreUtilization float64
	MasterStallPS   int64
	DummyTDs        uint64
	DummyDTSegments uint64
	MaxTPOccupancy  int
	MaxDTOccupancy  int
	MaxDTChain      int
	MaxKOSegments   int
	DTFullStalls    uint64
	MemHighWater    int
	MemWaits        uint64
	BlockUtil       map[string]float64
	ScheduleHash    string
	ExecHash        string
}

func hashIntervals(ivs []depgraph.Interval) string {
	h := fnv.New64a()
	var b [16]byte
	for _, iv := range ivs {
		binary.LittleEndian.PutUint64(b[:8], uint64(iv.Start))
		binary.LittleEndian.PutUint64(b[8:], uint64(iv.End))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func recordOf(res *core.Result, err error) simRecord {
	if err != nil {
		return simRecord{Err: err.Error()}
	}
	return simRecord{
		MakespanPS:      int64(res.Makespan),
		Events:          res.Events,
		TasksExecuted:   res.TasksExecuted,
		CoreUtilization: res.CoreUtilization,
		MasterStallPS:   int64(res.MasterStall),
		DummyTDs:        res.DummyTDs,
		DummyDTSegments: res.DummyDTSegments,
		MaxTPOccupancy:  res.MaxTPOccupancy,
		MaxDTOccupancy:  res.MaxDTOccupancy,
		MaxDTChain:      res.MaxDTChain,
		MaxKOSegments:   res.MaxKOSegments,
		DTFullStalls:    res.DTFullStalls,
		MemHighWater:    res.MemHighWater,
		MemWaits:        res.MemWaits,
		BlockUtil:       res.BlockUtil,
		ScheduleHash:    hashIntervals(res.Schedule),
		ExecHash:        hashIntervals(res.ExecIntervals),
	}
}

// bitidentConfigs are the paths a host-speed change can fork around: the
// default pipeline, single-ported tables (the only runs where the port
// resources exist), contention-free memory (no memory-port resource),
// renaming, no prefetch overlap, the original-Nexus costs and hard limits,
// and structures small enough that every stall path fires.
var bitidentConfigs = []struct {
	name string
	cfg  func(workers int) core.Config
}{
	{"default", core.DefaultConfig},
	{"table-ports-1", func(w int) core.Config {
		c := core.DefaultConfig(w)
		c.TablePorts = 1
		return c
	}},
	{"contention-free", func(w int) core.Config {
		c := core.DefaultConfig(w)
		c.Mem.ContentionFree = true
		return c
	}},
	{"rename-false-deps", func(w int) core.Config {
		c := core.DefaultConfig(w)
		c.RenameFalseDeps = true
		return c
	}},
	{"buffering-depth-1", func(w int) core.Config {
		c := core.DefaultConfig(w)
		c.BufferingDepth = 1
		return c
	}},
	{"nexus1", nexus1.Config},
	{"tiny-tables", func(w int) core.Config {
		c := core.DefaultConfig(w)
		c.TaskPoolEntries = 24
		c.DepTableEntries = 48
		c.KickOffSlots = 2
		c.TDsListEntries = 4
		c.TablePorts = 1
		return c
	}},
}

var bitidentWorkloads = []struct {
	name string
	src  func() workload.Source
}{
	{"gaussian-40", func() workload.Source { return workload.Gaussian(workload.GaussianConfig{N: 40}) }},
	{"wavefront-48x30", func() workload.Source {
		return workload.Grid(workload.GridConfig{Pattern: workload.PatternWavefront, Rows: 48, Cols: 30, Seed: 7})
	}},
	// Independent tasks are the only shape here wide enough to queue more
	// than 32 controllers behind the memory ports.
	{"independent-40x25", func() workload.Source {
		return workload.Grid(workload.GridConfig{Pattern: workload.PatternIndependent, Rows: 40, Cols: 25, Seed: 3})
	}},
}

var bitidentWorkers = []int{1, 16, 256}

func TestSimulatedResultsBitIdentical(t *testing.T) {
	got := map[string]simRecord{}
	for _, c := range bitidentConfigs {
		for _, w := range bitidentWorkloads {
			for _, n := range bitidentWorkers {
				cfg := c.cfg(n)
				cfg.RecordSchedule = true
				key := fmt.Sprintf("%s/%s/w%d", c.name, w.name, n)
				got[key] = recordOf(core.Run(cfg, w.src()))
			}
		}
	}
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(bitidentFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bitidentFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), bitidentFile)
		return
	}
	buf, err := os.ReadFile(bitidentFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]simRecord{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("%s: %v", bitidentFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d records, this tree produced %d", bitidentFile, len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no captured record", key)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: simulated result moved\n got  %+v\n want %+v", key, g, w)
		}
	}
}
