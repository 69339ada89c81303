// Wavefront stencil on the executing StarSs runtime — the computation the
// paper's Listing 1 sketches for H.264 macroblock decoding, with real data.
//
// Each block (r,c) of a grid is "decoded" from its left neighbour (r,c-1)
// and its up-right neighbour (r-1,c+1), the exact dependency pattern of
// Figure 4(a). Tasks are submitted in the serial loop order of Listing 1;
// the runtime discovers the diagonal wavefront automatically. A body
// touches its input blocks before it decodes: the paper's Get Inputs phase,
// which on a worker that shares the submitter's memory is the body's own.
//
// The parallel result is verified against a serial execution.
//
// Run with: go run ./examples/wavefront [-rows 120] [-cols 68] [-workers 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"nexuspp"
)

const blockSize = 16

type block [blockSize * blockSize]int32

// decode fills dst from its dependencies, a stand-in for H.264 macroblock
// reconstruction: every pixel mixes the left and up-right blocks with a
// per-block seed.
func decode(dst *block, left, upright *block, seed int32) {
	for i := range dst {
		v := seed + int32(i)
		if left != nil {
			v += left[i] >> 1
		}
		if upright != nil {
			v += upright[(i+7)%len(upright)] >> 2
		}
		dst[i] = v*1103515245 + 12345
	}
}

func run(rows, cols, workers int) [][]block {
	grid := make([][]block, rows)
	for r := range grid {
		grid[r] = make([]block, cols)
	}
	key := func(r, c int) uint64 { return uint64(r*cols + c) }

	rt := nexuspp.NewRuntime(nexuspp.RuntimeConfig{Workers: workers, Window: 2048})
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			r, c := r, c
			deps := []nexuspp.Dep{nexuspp.InOut(key(r, c))}
			var left, upright *block
			if c > 0 {
				left = &grid[r][c-1]
				deps = append(deps, nexuspp.In(key(r, c-1)))
			}
			if r > 0 && c < cols-1 {
				upright = &grid[r-1][c+1]
				deps = append(deps, nexuspp.In(key(r-1, c+1)))
			}
			rt.MustSubmit(nexuspp.Task{
				Name: fmt.Sprintf("decode-%d-%d", r, c),
				Deps: deps,
				Do: func(context.Context) error {
					// Get Inputs: touch the inputs just ahead of the decode.
					var sum int32
					if left != nil {
						sum += left[0]
					}
					if upright != nil {
						sum += upright[0]
					}
					_ = sum
					decode(&grid[r][c], left, upright, int32(r*cols+c))
					return nil
				},
			})
		}
	}
	if err := rt.Close(); err != nil {
		panic(err)
	}
	return grid
}

func main() {
	rows := flag.Int("rows", 120, "grid rows")
	cols := flag.Int("cols", 68, "grid cols")
	workers := flag.Int("workers", 8, "worker goroutines")
	flag.Parse()

	start := time.Now()
	parallel := run(*rows, *cols, *workers)
	par := time.Since(start)

	start = time.Now()
	serial := run(*rows, *cols, 1)
	ser := time.Since(start)

	for r := range parallel {
		for c := range parallel[r] {
			if parallel[r][c] != serial[r][c] {
				fmt.Printf("VERIFICATION FAILED at block (%d,%d)\n", r, c)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("wavefront decode: %dx%d blocks (%d tasks) on %d workers\n",
		*rows, *cols, *rows**cols, *workers)
	fmt.Printf("parallel %v, serial-runtime %v\n",
		par.Round(time.Millisecond), ser.Round(time.Millisecond))
	fmt.Println("verified: parallel result matches serial execution")
}
