// Tiled Cholesky factorisation on the executing StarSs runtime — the
// canonical dense-linear-algebra task graph StarSs was designed for,
// computing with real float64 tiles and verifying A = L*L^T at the end.
//
// The four kernels declare their tile accesses exactly as a StarSs
// programmer would annotate them:
//
//	POTRF(k):    inout A[k][k]
//	TRSM(i,k):   in A[k][k],  inout A[i][k]
//	SYRK(i,k):   in A[i][k],  inout A[i][i]
//	GEMM(i,j,k): in A[i][k], A[j][k], inout A[i][j]
//
// and the runtime extracts all the parallelism; the submission loop is the
// sequential right-looking algorithm.
//
// Run with: go run ./examples/cholesky [-tiles 8] [-b 48] [-workers 8]
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

type tile struct {
	b    int
	data []float64
}

func newTile(b int) *tile { return &tile{b: b, data: make([]float64, b*b)} }

func (t *tile) at(r, c int) float64     { return t.data[r*t.b+c] }
func (t *tile) set(r, c int, v float64) { t.data[r*t.b+c] = v }

// potrf factors a in place: a = l * l^T (lower triangular l).
func potrf(a *tile) {
	b := a.b
	for j := 0; j < b; j++ {
		d := a.at(j, j)
		for k := 0; k < j; k++ {
			d -= a.at(j, k) * a.at(j, k)
		}
		if d <= 0 {
			panic("matrix not positive definite")
		}
		d = math.Sqrt(d)
		a.set(j, j, d)
		for i := j + 1; i < b; i++ {
			v := a.at(i, j)
			for k := 0; k < j; k++ {
				v -= a.at(i, k) * a.at(j, k)
			}
			a.set(i, j, v/d)
		}
		for i := 0; i < j; i++ {
			a.set(i, j, 0)
		}
	}
}

// trsm solves x * l^T = a in place given the factored diagonal tile l.
func trsm(l, a *tile) {
	b := a.b
	for j := 0; j < b; j++ {
		for i := 0; i < b; i++ {
			v := a.at(i, j)
			for k := 0; k < j; k++ {
				v -= a.at(i, k) * l.at(j, k)
			}
			a.set(i, j, v/l.at(j, j))
		}
	}
}

// syrk computes a -= x * x^T for a diagonal tile.
func syrk(x, a *tile) {
	b := a.b
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			v := a.at(i, j)
			for k := 0; k < b; k++ {
				v -= x.at(i, k) * x.at(j, k)
			}
			a.set(i, j, v)
		}
	}
}

// gemm computes a -= x * y^T.
func gemm(x, y, a *tile) {
	b := a.b
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			v := a.at(i, j)
			for k := 0; k < b; k++ {
				v -= x.at(i, k) * y.at(j, k)
			}
			a.set(i, j, v)
		}
	}
}

func main() {
	tiles := flag.Int("tiles", 8, "tile grid dimension")
	bsz := flag.Int("b", 48, "tile size")
	workers := flag.Int("workers", 8, "worker goroutines")
	flag.Parse()
	T, B := *tiles, *bsz
	n := T * B

	// Build a symmetric positive-definite matrix A (lower storage by
	// tiles) and keep a copy for verification.
	a := make([][]*tile, T)
	orig := make([][]*tile, T)
	for i := range a {
		a[i] = make([]*tile, T)
		orig[i] = make([]*tile, T)
		for j := 0; j <= i; j++ {
			a[i][j] = newTile(B)
			orig[i][j] = newTile(B)
		}
	}
	val := func(r, c int) float64 {
		v := float64((r*37+c*61)%23)/23.0 - 0.5
		if r == c {
			v += float64(n) // diagonal dominance => positive definite
		}
		return v
	}
	for i := 0; i < T; i++ {
		for j := 0; j <= i; j++ {
			for r := 0; r < B; r++ {
				for c := 0; c < B; c++ {
					gr, gc := i*B+r, j*B+c
					if gc > gr {
						continue
					}
					v := (val(gr, gc) + val(gc, gr)) / 2
					a[i][j].set(r, c, v)
					orig[i][j].set(r, c, v)
				}
			}
		}
	}

	key := func(i, j int) uint64 { return uint64(i*T + j) } // tile (i, j)'s address
	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: *workers, Window: 4096})
	start := time.Now()
	for k := 0; k < T; k++ {
		k := k
		rt.MustSubmit(nexuspp.Task{
			Name: fmt.Sprintf("potrf-%d", k),
			Deps: []nexuspp.Dep{nexuspp.InOut(key(k, k))},
			Do:   func(context.Context) error { potrf(a[k][k]); return nil },
		})
		for i := k + 1; i < T; i++ {
			i := i
			rt.MustSubmit(nexuspp.Task{
				Name: fmt.Sprintf("trsm-%d-%d", i, k),
				Deps: []nexuspp.Dep{nexuspp.In(key(k, k)), nexuspp.InOut(key(i, k))},
				Do:   func(context.Context) error { trsm(a[k][k], a[i][k]); return nil },
			})
		}
		for i := k + 1; i < T; i++ {
			i := i
			rt.MustSubmit(nexuspp.Task{
				Name: fmt.Sprintf("syrk-%d-%d", i, k),
				Deps: []nexuspp.Dep{nexuspp.In(key(i, k)), nexuspp.InOut(key(i, i))},
				Do:   func(context.Context) error { syrk(a[i][k], a[i][i]); return nil },
			})
			for j := k + 1; j < i; j++ {
				j := j
				rt.MustSubmit(nexuspp.Task{
					Name: fmt.Sprintf("gemm-%d-%d-%d", i, j, k),
					Deps: []nexuspp.Dep{
						nexuspp.In(key(i, k)), nexuspp.In(key(j, k)),
						nexuspp.InOut(key(i, j)),
					},
					Do: func(context.Context) error { gemm(a[i][k], a[j][k], a[i][j]); return nil },
				})
			}
		}
	}
	if err := rt.Wait(context.Background()); err != nil {
		fmt.Println("factorisation failed:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	stats := rt.Stats()
	if err := rt.Close(); err != nil {
		fmt.Println("runtime close:", err)
		os.Exit(1)
	}

	// Verify A = L * L^T elementwise (lower triangle).
	l := func(r, c int) float64 {
		if c > r {
			return 0
		}
		ti, tj := r/B, c/B
		return a[ti][tj].at(r%B, c%B)
	}
	maxErr := 0.0
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			sum := 0.0
			for k := 0; k <= c; k++ {
				sum += l(r, k) * l(c, k)
			}
			ref := orig[r/B][c/B].at(r%B, c%B)
			if e := math.Abs(sum - ref); e > maxErr {
				maxErr = e
			}
		}
	}
	fmt.Printf("cholesky: %dx%d matrix (%dx%d tiles of %d), %d tasks, %d workers\n",
		n, n, T, T, B, stats.Executed, *workers)
	fmt.Printf("factorisation %v, hazardous tasks %d, max in-flight %d\n",
		elapsed.Round(time.Millisecond), stats.Hazards, stats.MaxInFlight)
	fmt.Printf("max |L*L^T - A| = %.3g\n", maxErr)
	if maxErr > 1e-6*float64(n) {
		fmt.Println("VERIFICATION FAILED")
		os.Exit(1)
	}
	fmt.Println("verified: factorisation reconstructs A")
}
