// Package scopedkey guards the multi-tenant isolation boundary. The
// service layer shares one Runtime between every client session; isolation
// holds only because each session submits through its own starss.Scope,
// whose namespace is a field of every Dependence Table key its tasks use
// ({namespace, address}) — the software analogue of per-master address
// spaces under the one hardware task manager. A task handed to the Runtime
// directly carries no scope, so its keys land in namespace 0, the runtime's
// own: a single direct Runtime.Submit inside internal/service would put
// every tenant's address 0x40 in that one namespace, silently coupling
// their task graphs. This analyzer makes the detour through Scope
// mandatory. (The name is from when a scope rewrote each key into a
// ScopedKey wrapper; the bug it prevents is the same, the mechanism is not.)
package scopedkey

import (
	"go/ast"
	"strings"

	"nexuspp/internal/analysis"
)

const starssPath = "nexuspp/internal/starss"

// Analyzer forbids key-accepting *starss.Runtime calls inside the service
// layer; client keys must go through the session's starss.Scope.
var Analyzer = &analysis.Analyzer{
	Name: "scopedkey",
	Doc:  "inside internal/service, client keys must be submitted through a starss.Scope, never into the shared Runtime's own namespace",
	Run:  run,
}

// keyed is the set of Runtime methods that consume dependency keys and are
// therefore tenant-unsafe outside a scope's namespace. Lifecycle methods
// (Close, Stats, InFlight, …) take no keys and stay allowed.
var keyed = map[string]bool{
	"Submit":     true,
	"SubmitAll":  true,
	"MustSubmit": true,
	"WaitOn":     true,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains(pass.Pkg.Path(), "internal/service") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !keyed[sel.Sel.Name] {
				return true
			}
			if analysis.IsNamed(pass.TypesInfo.TypeOf(sel.X), starssPath, "Runtime") {
				pass.Reportf(call.Pos(),
					"client keys land in the shared Runtime's own namespace via Runtime.%s; in the service layer submit through the session's starss.Scope (Runtime.Scope) so every tenant's keys stay in its own",
					sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
