package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestClassify(t *testing.T) {
	higher := metricDef{Name: "tasks_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same numbers", higher, []float64{100, 101, 99, 100, 102}, []float64{101, 100, 99, 100, 102}, classUnchanged},
		{"throughput down 20%", higher, []float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 80, 82}, classRegressed},
		{"throughput up 20%", higher, []float64{100, 101, 99, 100, 102}, []float64{120, 121, 119, 120, 122}, classImproved},
		{"latency up 20%", lower, []float64{100, 101, 99, 100, 102}, []float64{120, 121, 119, 120, 122}, classRegressed},
		{"latency down 20%", lower, []float64{100, 101, 99, 100, 102}, []float64{80, 81, 79, 80, 82}, classImproved},
		{"within the bound", lower, []float64{100, 101, 99, 100, 102}, []float64{105, 106, 104, 105, 107}, classUnchanged},
		// Spread far wider than the bound and the sets interleave: the
		// benchmark cannot tell, and must not say "unchanged".
		{"wide and overlapping", lower, []float64{60, 100, 140, 80, 120}, []float64{70, 110, 150, 90, 130}, classUnresolved},
		// Just as wide, but every run of B beats every run of A.
		{"wide but disjoint", lower, []float64{200, 300, 400, 250, 350}, []float64{60, 100, 140, 80, 120}, classImproved},
		{"single runs", higher, []float64{100}, []float64{85}, classRegressed},
	} {
		if got := classify(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: classified %s, want %s", c.name, got, c.want)
		}
	}
}

// fakeFile builds a result file whose untraced runs report tps for
// rt_wavefront's tasks_per_s and fixed values for the rest.
func fakeFile(p provenance, failed int, tps ...float64) *resultFile {
	f := &resultFile{Schema: resultSchema}
	for _, v := range tps {
		m := map[string]metricValue{}
		for _, d := range endToEndDefs {
			m[d.Name] = metricValue{Value: 10, Unit: d.Unit}
		}
		m["tasks_per_s"] = metricValue{Value: v, Unit: "1/s"}
		f.Runs = append(f.Runs, run{Provenance: p, Workloads: []workloadResult{
			{Name: "rt_wavefront", Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: m},
			{Name: "rt_wavefront", Trace: 1, Metrics: map[string]metricValue{"tasks_per_s": {Value: 1}}}, // traced runs are ignored
		}})
	}
	return f
}

func TestCompareFiles(t *testing.T) {
	p := provenance{NProc: 2, P: 2, Seed: 42, Commit: "abc"}
	base := fakeFile(p, 0, 100, 101, 99, 100, 102)
	for _, c := range []struct {
		name                  string
		b                     *resultFile
		regressed, unresolved int
		moreFailures          bool
	}{
		{"A/A", fakeFile(p, 0, 101, 100, 99, 102, 100), 0, 0, false},
		{"slower", fakeFile(p, 0, 70, 71, 69, 70, 72), 1, 0, false},
		{"failures", fakeFile(p, 3, 100, 101, 99, 100, 102), 0, 0, true},
		{"noisy", fakeFile(p, 0, 60, 100, 140, 80, 120), 0, 1, false},
	} {
		var out bytes.Buffer
		regressed, unresolved, more := compareFiles(&out, base, c.b)
		if regressed != c.regressed || unresolved != c.unresolved || more != c.moreFailures {
			t.Errorf("%s: regressed %d unresolved %d moreFailures %v, want %d %d %v\n%s",
				c.name, regressed, unresolved, more, c.regressed, c.unresolved, c.moreFailures, out.String())
		}
		// Every ratio is printed with its base and every row with its bound.
		if !strings.Contains(out.String(), "B/A") || !strings.Contains(out.String(), "tasks_per_s") || !strings.Contains(out.String(), "failed_ratio") {
			t.Errorf("%s: table lacks a column:\n%s", c.name, out.String())
		}
	}
}

func TestCompareRefusesUnlikeRuns(t *testing.T) {
	p := provenance{NProc: 2, P: 2, Seed: 42}
	base := fakeFile(p, 0, 100)
	quick, cores, seed := p, p, p
	quick.Quick = true
	cores.NProc, cores.P = 8, 4
	seed.Seed = 7
	for name, other := range map[string]provenance{"quick": quick, "nproc": cores, "seed": seed} {
		if err := comparable(base, fakeFile(other, 0, 100)); err == nil {
			t.Errorf("%s: compared runs that cannot be compared", name)
		}
	}
	if err := comparable(base, fakeFile(p, 0, 100)); err != nil {
		t.Errorf("like runs refused: %v", err)
	}
	if err := comparable(base, &resultFile{Schema: resultSchema}); err == nil {
		t.Error("an empty file was accepted")
	}
}

func TestCompareMainExitCodes(t *testing.T) {
	dir := t.TempDir()
	p := provenance{NProc: 2, P: 2, Seed: 42}
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		for _, r := range f.Runs {
			if err := appendRun(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", fakeFile(p, 0, 100, 101, 99))
	same := write("same.json", fakeFile(p, 0, 101, 100, 99))
	slow := write("slow.json", fakeFile(p, 0, 70, 71, 69))
	q := p
	q.Quick = true
	quick := write("quick.json", fakeFile(q, 0, 100))
	var out bytes.Buffer
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{a, same}, 0},
		{[]string{a, slow}, 1},
		{[]string{a, quick}, 2},
		{[]string{a}, 2},
		{[]string{a, filepath.Join(dir, "missing.json")}, 2},
	} {
		if got := compareMain(c.args, &out); got != c.want {
			t.Errorf("compare %v: exit %d, want %d", c.args, got, c.want)
		}
	}
	// appendRun accumulated three runs in one file.
	f, err := readResultFile(a)
	if err != nil || len(f.Runs) != 3 {
		t.Fatalf("read back %v runs, err %v", f, err)
	}
}
