package backend

import (
	"fmt"
	"slices"
	"strings"

	"nexuspp/internal/workload"
)

// WorkloadInfo is one named entry of the workload registry: a constructor
// plus a one-line description for listings.
type WorkloadInfo struct {
	// Name is the registry key (flag-friendly).
	Name string
	// Description is the one-line listing text.
	Description string
	// New builds a fresh source; seed drives the synthetic generators
	// (deterministic workloads ignore it).
	New func(seed uint64) workload.Source
}

// workloads is the registry, sorted by name: the paper's Figure 4
// patterns, its Gaussian graph, the Cholesky extension, and the irregular
// family (the TaskTorrent/StarPU wait-chain grid, seeded random DAGs, and
// the skewed-cost spatial decomposition).
var workloads = []WorkloadInfo{
	{
		Name:        "cholesky",
		Description: "tiled Cholesky factorisation, 16x16 tiles of 32 (DESIGN.md extension workload)",
		New: func(uint64) workload.Source {
			return workload.Cholesky(workload.CholeskyConfig{Tiles: 16, TileSize: 32})
		},
	},
	{
		Name:        "gaussian",
		Description: "Gaussian elimination with partial pivoting, n=250, 31374 tasks (paper Figure 5 / Table II)",
		New: func(uint64) workload.Source {
			return workload.Gaussian(workload.GaussianConfig{N: 250})
		},
	},
	{
		Name:        "horizontal",
		Description: "horizontal chains along the task-generation order (paper Figure 4b)",
		New:         workload.HorizontalChains,
	},
	{
		Name:        "independent",
		Description: "8160 H.264-sized tasks, no dependencies (paper Figure 4, independent)",
		New:         workload.Independent,
	},
	{
		Name:        "randdag",
		Description: "seeded random DAG, 4096 tasks, fan-in <= 3 over a 64-task window",
		New: func(seed uint64) workload.Source {
			return workload.RandomDAG(workload.RandomDAGConfig{Seed: seed})
		},
	},
	{
		Name:        "skewed",
		Description: "skewed-cost spatial decomposition, 16x16 tiles x 4 sweeps, bounded-Pareto costs",
		New: func(seed uint64) workload.Source {
			return workload.SpatialSkew(workload.SpatialSkewConfig{Seed: seed})
		},
	},
	{
		Name:        "starpu_deps",
		Description: "TaskTorrent/StarPU wait-chain grid, 32x64 tasks with 3 wrap-around in-deps, 5us spin",
		New: func(uint64) workload.Source {
			return workload.StarPUDeps(workload.StarPUDepsConfig{})
		},
	},
	{
		Name:        "vertical",
		Description: "vertical chains across the task-generation order (paper Figure 4c)",
		New:         workload.VerticalChains,
	},
	{
		Name:        "wavefront",
		Description: "H.264 macroblock wavefront, 8160 tasks (paper Figure 4a)",
		New:         workload.Wavefront,
	},
}

// Workloads returns every workload sorted by name.
func Workloads() []WorkloadInfo { return slices.Clone(workloads) }

// LookupWorkload resolves a workload by name; an unknown name fails with an
// error listing every valid name in sorted order, so the message is stable
// for golden error-message tests.
func LookupWorkload(name string) (WorkloadInfo, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return WorkloadInfo{}, fmt.Errorf("backend: unknown workload %q (valid: %s)",
		name, strings.Join(names, ", "))
}
