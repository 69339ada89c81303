// Package nexusvet assembles the project's analyzer suite — the four
// statically enforced concurrency invariants documented in DESIGN.md
// ("Statically enforced invariants"). cmd/nexusvet, the go vet -vettool unit
// checker that `make lint` runs locally and in CI, runs exactly this list.
package nexusvet

import (
	"nexuspp/internal/analysis"
	"nexuspp/internal/analysis/ctxflow"
	"nexuspp/internal/analysis/handleleak"
	"nexuspp/internal/analysis/lockorder"
	"nexuspp/internal/analysis/scopedkey"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		handleleak.Analyzer,
		lockorder.Analyzer,
		scopedkey.Analyzer,
	}
}
