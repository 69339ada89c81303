package main

import (
	"fmt"
	"io"
)

// Classes a (workload, metric) row can fall into when run set B is held
// against baseline A.
const (
	classImproved   = "improved"
	classUnchanged  = "unchanged"
	classRegressed  = "regressed"
	classUnresolved = "unresolved"
)

// classify applies one end-to-end metric's bound to the two sets' values,
// by the share of A's median by which B's median is worse. A row whose spread exceeds the bound is unresolved
// while the two sets' ranges overlap: the benchmark cannot tell such sets
// apart, so it says so instead of "unchanged". Once every run of one set
// beats every run of the other, the spread no longer matters.
func classify(def metricDef, a, b []float64) string {
	worse := 0.0
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	wide := spread(a) > def.Bound || spread(b) > def.Bound
	sa, sb := sortedCopy(a), sortedCopy(b)
	overlap := sa[0] <= sb[len(sb)-1] && sb[0] <= sa[len(sa)-1]
	switch {
	case wide && overlap:
		return classUnresolved
	case worse > def.Bound:
		return classRegressed
	case worse < -def.Bound:
		return classImproved
	default:
		return classUnchanged
	}
}

// untracedValues gathers, per workload and metric, one value per run.
func untracedValues(f *resultFile) (values map[string]map[string][]float64, attempted, failed map[string]int) {
	values = map[string]map[string][]float64{}
	attempted, failed = map[string]int{}, map[string]int{}
	for _, r := range f.Runs {
		for _, w := range r.Workloads {
			if w.Trace != 0 {
				continue
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			attempted[w.Name] += w.Attempted
			failed[w.Name] += w.Failed
		}
	}
	return values, attempted, failed
}

// comparable refuses sets that cannot be held against each other: -quick
// numbers mean nothing, and a different seed or core count is a different
// experiment.
func comparable(a, b *resultFile) error {
	if len(a.Runs) == 0 || len(b.Runs) == 0 {
		return fmt.Errorf("a result file holds no runs")
	}
	ref := a.Runs[0].Provenance
	for _, f := range []*resultFile{a, b} {
		for _, r := range f.Runs {
			p := r.Provenance
			switch {
			case p.Quick:
				return fmt.Errorf("refusing -quick results: their numbers mean nothing")
			case p.NProc != ref.NProc || p.P != ref.P:
				return fmt.Errorf("refusing runs from different machines: nproc %d (P %d) vs nproc %d (P %d)", ref.NProc, ref.P, p.NProc, p.P)
			case p.Seed != ref.Seed:
				return fmt.Errorf("refusing runs with different seeds: %d vs %d", ref.Seed, p.Seed)
			}
		}
	}
	return nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns how many rows regressed, how many are unresolved, and whether B
// failed a larger share of its operations than A.
func compareFiles(w io.Writer, a, b *resultFile) (regressed, unresolved int, moreFailures bool) {
	va, atA, flA := untracedValues(a)
	vb, atB, flB := untracedValues(b)
	fmt.Fprintf(w, "%-15s %-16s %4s %14s %14s %9s %7s  %s\n", "workload", "metric", "n", "median A", "median B", "B/A", "bound", "class")
	for _, name := range workloadNames() {
		if va[name] == nil || vb[name] == nil {
			continue
		}
		for _, def := range endToEndDefs {
			xa, xb := va[name][def.Name], vb[name][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			class := classify(def, xa, xb)
			ratio := 0.0
			if ma := median(xa); ma != 0 {
				ratio = median(xb) / ma
			}
			switch class {
			case classRegressed:
				regressed++
			case classUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-16s %2d/%-2d %14.6g %14.6g %9.4f %6.0f%%  %s (%s is better; spread A %.1f%% B %.1f%%)\n",
				name, def.Name, len(xa), len(xb), median(xa), median(xb), ratio, 100*def.Bound, class, def.Better, 100*spread(xa), 100*spread(xb))
		}
		ra, rb := 0.0, 0.0
		if atA[name] > 0 {
			ra = float64(flA[name]) / float64(atA[name])
		}
		if atB[name] > 0 {
			rb = float64(flB[name]) / float64(atB[name])
		}
		verdict := "ok"
		if rb > ra {
			verdict, moreFailures = "MORE FAILURES", true
		}
		fmt.Fprintf(w, "%-15s %-16s %5s %14.6g %14.6g %9s %6.0f%%  %s (failed / attempted operations)\n",
			name, "failed_ratio", "", ra, rb, "", 0.0, verdict)
	}
	return regressed, unresolved, moreFailures
}

// compareMain is `bench compare A.json B.json`: A is the base of every
// ratio. It returns the exit code: 0 clean, 1 a regression or more
// failures, 2 the files cannot be compared.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		warnf("usage: bench compare A.json B.json")
		return 2
	}
	a, err := readResultFile(args[0])
	if err != nil {
		warnf("%v", err)
		return 2
	}
	b, err := readResultFile(args[1])
	if err != nil {
		warnf("%v", err)
		return 2
	}
	if err := comparable(a, b); err != nil {
		warnf("%v", err)
		return 2
	}
	regressed, unresolved, moreFailures := compareFiles(w, a, b)
	fmt.Fprintf(w, "base = A (%s, %d runs); B = %s, %d runs: %d regressed, %d unresolved\n",
		a.Runs[0].Provenance.Commit, len(a.Runs), b.Runs[0].Provenance.Commit, len(b.Runs), regressed, unresolved)
	if regressed > 0 || moreFailures {
		return 1
	}
	return 0
}
