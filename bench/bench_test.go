package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// The -quick smoke: every workload, untraced and traced, tiny counts. It
// checks no number — only that every correctness gate runs and passes,
// that each mode reports exactly its metric set, and that the traced run
// leaves a span file.
func TestQuickSmokeRunsEveryGate(t *testing.T) {
	e := env{Seed: 42, P: 2, Quick: true}
	outDir := t.TempDir()
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, e, 0.05, traced, outDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.def.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.def.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.def.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q", w.def.Name, traced, d.Name, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.def.Name, d.Name, m.Value)
				}
			}
			if traced {
				if st, err := os.Stat(res.TraceFile); err != nil || st.Size() == 0 {
					t.Errorf("%s: no span file at %s: %v", w.def.Name, res.TraceFile, err)
				}
				if v := res.Metrics["obs.overhead_ratio"].Value; v <= 0 {
					t.Errorf("%s: obs.overhead_ratio = %v", w.def.Name, v)
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root and spec.go state the same
// contract; this keeps one from drifting from the other.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, spec has %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: %q differs from spec %q", i, w.Name, workloadDefs[i].Name)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits (why is %d chars)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, spec has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: %+v differs from spec %+v", kind, i, m, d)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %q: name or unit %q outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %q: bound %v, spec %v (must be in (0, 0.25])", kind, m.Name, m.Bound, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(doc.EndToEnd), len(doc.PerLayer))
	}
	largest := 0.0
	for _, d := range endToEndDefs {
		largest = max(largest, d.Bound)
	}
	if d, _ := findMetric(endToEndDefs, "setup_s"); d.Bound != largest || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be in seconds, lower-is-better, with the largest bound: %+v", d)
	}
}
