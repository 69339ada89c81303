// Package ctxflow enforces context threading on the runtime's blocking
// API. A function that receives a context.Context and then calls
// Submit/SubmitAll/TrySubmitAll/Wait/WaitOn with context.Background() or
// context.TODO() has disconnected its caller's cancellation from the very
// operations that block on the in-flight window, or from the bodies of the
// tasks it submits. The fix is always the same: thread the parameter.
package ctxflow

import (
	"go/ast"
	"go/types"

	"nexuspp/internal/analysis"
)

// Analyzer flags runtime calls that replace an in-scope context parameter
// with context.Background or context.TODO.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "functions receiving a ctx must thread it into Submit/SubmitAll/TrySubmitAll/Wait/WaitOn, not substitute context.Background/TODO",
	Run:  run,
}

// blocking is the set of runtime entry points whose context governs
// admission blocking, task-body cancellation or both. TrySubmitAll never
// waits, but its ctx is the one its tasks' bodies run under — the context a
// service session cancels to drain.
var blocking = map[string]bool{
	"Submit":       true,
	"SubmitAll":    true,
	"TrySubmitAll": true,
	"Wait":         true,
	"WaitOn":       true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					if name, ok := ctxParam(pass, fn.Type); ok {
						checkScope(pass, fn.Body, name)
					}
				}
			case *ast.FuncLit:
				if name, ok := ctxParam(pass, fn.Type); ok {
					checkScope(pass, fn.Body, name)
				}
			}
			return true
		})
	}
	return nil
}

// ctxParam returns the name of the function's context.Context parameter.
func ctxParam(pass *analysis.Pass, ft *ast.FuncType) (string, bool) {
	if ft.Params == nil {
		return "", false
	}
	for _, field := range ft.Params.List {
		if !isContext(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		if len(field.Names) == 0 || field.Names[0].Name == "_" {
			continue // unusable parameter; nothing to thread
		}
		return field.Names[0].Name, true
	}
	return "", false
}

func isContext(t types.Type) bool {
	return analysis.IsNamed(t, "context", "Context")
}

// checkScope walks one function body that has a usable ctx parameter.
// Nested function literals that declare their own context parameter are
// their own scope (the walk in run handles them); literals without one
// still see the outer parameter and stay part of this scope.
func checkScope(pass *analysis.Pass, body *ast.BlockStmt, ctxName string) {
	// freshVars tracks locals assigned from Background/TODO inside this
	// scope, so `ctx := context.Background(); rt.Submit(ctx, …)` is caught
	// the same as the inline form.
	freshVars := make(map[types.Object]string)
	skip := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			if _, ok := ctxParam(pass, n.Type); ok {
				skip[n.Body] = true
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				src, ok := backgroundCall(pass, rhs)
				if !ok {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						freshVars[obj] = src
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !blocking[sel.Sel.Name] {
				return true
			}
			for _, arg := range n.Args {
				if src, ok := backgroundCall(pass, arg); ok {
					pass.Reportf(arg.Pos(),
						"%s called with context.%s although the enclosing function receives a context parameter %q; thread %q so cancellation reaches the runtime",
						sel.Sel.Name, src, ctxName, ctxName)
					continue
				}
				if id, ok := arg.(*ast.Ident); ok {
					if src, ok := freshVars[pass.TypesInfo.Uses[id]]; ok {
						pass.Reportf(arg.Pos(),
							"%s called with a context derived from context.%s although the enclosing function receives a context parameter %q; thread %q so cancellation reaches the runtime",
							sel.Sel.Name, src, ctxName, ctxName)
					}
				}
			}
		}
		return true
	})
}

// backgroundCall reports whether e is a direct context.Background() or
// context.TODO() call, returning which.
func backgroundCall(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Background" && name != "TODO" {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return name + "()", true
}
