// Gaussian elimination with partial pivoting on the executing StarSs
// runtime — the real computation behind the paper's Figure 5 task graph.
//
// The task structure mirrors the paper exactly: for each column i, a pivot
// task selects the pivot among rows i..n (declaring inout on all of them,
// since partial pivoting may swap any row up), then n-i independent update
// tasks eliminate the column from the remaining rows. The dependency
// declarations alone serialise the pivot against the updates and let every
// update of one column run in parallel — no locks, no explicit waits. A row's
// index is the address its dependencies name.
//
// The result is verified against a known solution vector.
//
// Run with: go run ./examples/gaussian [-n 192] [-workers 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"nexuspp"
)

func main() {
	n := flag.Int("n", 192, "matrix dimension")
	workers := flag.Int("workers", 8, "worker goroutines")
	flag.Parse()

	// Build a system A*x = b with a known solution x[i] = 1 + i mod 5,
	// using a diagonally dominant A so elimination is well-conditioned.
	a := make([][]float64, *n)
	xTrue := make([]float64, *n)
	for i := range xTrue {
		xTrue[i] = float64(1 + i%5)
	}
	for i := range a {
		a[i] = make([]float64, *n+1) // augmented column holds b
		rowSum := 0.0
		for j := 0; j < *n; j++ {
			v := float64((i*31+j*17)%13) / 13.0
			a[i][j] = v
			rowSum += math.Abs(v)
		}
		a[i][i] += rowSum + 1 // diagonal dominance
		b := 0.0
		for j := 0; j < *n; j++ {
			b += a[i][j] * xTrue[j]
		}
		a[i][*n] = b
	}

	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: *workers, Window: 4096})
	start := time.Now()

	for col := 0; col < *n-1; col++ {
		col := col
		// Pivot task T(i,i): select the pivot in column col among rows
		// col..n-1 and swap it up. It may touch any of those rows, so it
		// declares inout on all of them — which also makes it wait for
		// every update task of the previous column, the Figure 5 barrier.
		pivotDeps := make([]nexuspp.Dep, 0, *n-col)
		for r := col; r < *n; r++ {
			pivotDeps = append(pivotDeps, nexuspp.InOut(uint64(r)))
		}
		rt.MustSubmit(nexuspp.Task{
			Name: fmt.Sprintf("pivot-%d", col),
			Deps: pivotDeps,
			Do: func(context.Context) error {
				best := col
				for r := col + 1; r < *n; r++ {
					if math.Abs(a[r][col]) > math.Abs(a[best][col]) {
						best = r
					}
				}
				a[col], a[best] = a[best], a[col]
				return nil
			},
		})
		// Update tasks T(j,i): eliminate column col from row j. Each reads
		// the pivot row and rewrites its own row; rows of one column are
		// independent and run in parallel.
		for row := col + 1; row < *n; row++ {
			row := row
			rt.MustSubmit(nexuspp.Task{
				Name: fmt.Sprintf("update-%d-%d", row, col),
				Deps: []nexuspp.Dep{nexuspp.In(uint64(col)), nexuspp.InOut(uint64(row))},
				Do: func(context.Context) error {
					f := a[row][col] / a[col][col]
					a[row][col] = 0
					for j := col + 1; j <= *n; j++ {
						a[row][j] -= f * a[col][j]
					}
					return nil
				},
			})
		}
	}
	if err := rt.Wait(context.Background()); err != nil {
		fmt.Println("elimination failed:", err)
		os.Exit(1)
	}
	elim := time.Since(start)

	// Back substitution (serial; O(n^2), negligible).
	x := make([]float64, *n)
	for i := *n - 1; i >= 0; i-- {
		s := a[i][*n]
		for j := i + 1; j < *n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	stats := rt.Stats()
	if err := rt.Close(); err != nil {
		fmt.Println("runtime close:", err)
		os.Exit(1)
	}

	maxErr := 0.0
	for i := range x {
		if e := math.Abs(x[i] - xTrue[i]); e > maxErr {
			maxErr = e
		}
	}
	tasks := (*n**n + *n - 2) / 2
	fmt.Printf("gaussian elimination: n=%d, %d tasks (paper: (n^2+n-2)/2 = %d), %d workers\n",
		*n, stats.Executed, tasks, *workers)
	fmt.Printf("elimination time %v, hazardous tasks %d, max in-flight %d\n",
		elim.Round(time.Millisecond), stats.Hazards, stats.MaxInFlight)
	fmt.Printf("max |x - x_true| = %.3g\n", maxErr)
	if maxErr > 1e-8 {
		fmt.Println("VERIFICATION FAILED")
		os.Exit(1)
	}
	fmt.Println("verified: solution matches the known vector")
}
