package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

const resultSchema = "nexuspp/bench/v1"

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output: the one JSON object
// the benchmark driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// provenance pins down what produced a run.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	NProc      int    `json:"nproc"`
	P          int    `json:"p"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	StartedAt  string `json:"started_at"`
}

// workloadResult is everything one workload's run produced: the contract
// line's content plus every raw repeat and the wall time of each phase.
type workloadResult struct {
	Name           string                 `json:"name"`
	Trace          int                    `json:"trace"`
	Seconds        float64                `json:"seconds"`
	TasksPerRepeat int                    `json:"tasks_per_repeat"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Metrics        map[string]metricValue `json:"metrics"`
	// HostScaled says whether the timing metrics are scaled by the
	// host-speed reference; HostSpeed is the median speed the measured
	// repeats saw and RawTasksPerS the unscaled median throughput.
	HostScaled   bool               `json:"host_scaled"`
	HostSpeed    float64            `json:"host_speed"`
	RawTasksPerS float64            `json:"raw_tasks_per_s"`
	SetupS       []float64          `json:"setup_s"`
	PhaseWallS   map[string]float64 `json:"phase_wall_s"`
	// OpQuartilesUS are the quartiles of the pooled operation latencies.
	OpSamples     int         `json:"op_samples"`
	OpQuartilesUS [3]float64  `json:"op_quartiles_us"`
	Reps          []repSample `json:"reps"`
	TracedReps    []repSample `json:"traced_reps,omitempty"`
	TraceFile     string      `json:"trace_file,omitempty"`
}

// run is one invocation of the benchmark.
type run struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadResult `json:"workloads"`
}

// resultFile accumulates runs: invoking the benchmark again with the same
// -out appends, so five invocations make one five-run file for compare.
type resultFile struct {
	Schema string `json:"schema"`
	Runs   []run  `json:"runs"`
}

func readResultFile(path string) (*resultFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func appendRun(path string, r run) error {
	f, err := readResultFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f = &resultFile{Schema: resultSchema}
	case err != nil:
		return err
	}
	f.Runs = append(f.Runs, r)
	buf, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func collectProvenance(e env) provenance {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return provenance{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		NProc:      runtime.NumCPU(),
		P:          e.P,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Seed:       e.Seed,
		Quick:      e.Quick,
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit asks git for the checkout's commit; a checkout that is not a
// repository (the benchmark driver's is not) reads "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(dirty) > 0 {
		commit += "+dirty"
	}
	return commit
}

func kernelRelease() string {
	buf, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(buf))
}
