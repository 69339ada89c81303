// Command nexusvet statically enforces the runtime's concurrency
// invariants: sorted bank-lock acquisition (lockorder), handle-error
// consumption (handleleak), context threading (ctxflow) and scoped service
// keys (scopedkey).
// See DESIGN.md "Statically enforced invariants" for the mapping from each
// analyzer to the hardware guarantee it replaces.
//
// It is a go vet tool (the unit-checker protocol) and nothing else — cmd/go
// loads the packages, in-package test files included:
//
//	go vet -vettool=$(pwd)/bin/nexusvet ./...
//
// Findings exit nonzero. Suppress a finding only with a reasoned
// directive: //nexusvet:ignore <analyzer> <reason>.
package main

import (
	"os"

	"nexuspp/internal/analysis/driver"
	"nexuspp/internal/analysis/nexusvet"
)

func main() {
	os.Exit(driver.Main(os.Args[1:], os.Stdout, os.Stderr, nexusvet.Analyzers()))
}
