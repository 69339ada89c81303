// Package handleleak finds silently swallowed task failures. Every
// submission returns a *Handle — the software analogue of the hardware
// task ID — and the runtime's error story assumes each failure is observed
// somewhere: on the handle itself (Err/Done/Wait/Outcome) or collectively at a
// barrier (Runtime.Wait, Close, WaitOn all return the first root-cause
// failure). A handle that is dropped in a function that never consults any
// of those sinks is a task whose poison vanishes; an ignored Close() error
// discards the one failure the whole run recorded.
//
// The analyzer reports, per function (including its nested literals):
//
//   - Submit/SubmitAll/TrySubmitAll/MustSubmit results dropped outright or
//     bound to the blank identifier, unless the function consults a
//     barrier-level error (Wait/WaitOn/Close/Err used as a value) or hands
//     the runtime itself to another function (delegated shutdown);
//   - a named handle variable whose Err/Done/Wait/Outcome is never consulted and
//     which escapes no further;
//   - a bare or deferred x.Close() statement on one of this module's
//     error-returning Close methods, unless the function consults a
//     barrier-level error elsewhere (then the dropped Close is shutdown,
//     not swallowing). Discarding is still possible, but must be
//     explicit: _ = x.Close().
package handleleak

import (
	"go/ast"
	"go/types"
	"strings"

	"nexuspp/internal/analysis"
)

const (
	starssPath = "nexuspp/internal/starss"
	modulePath = "nexuspp"
)

// Analyzer flags dropped task handles and ignored runtime Close errors.
var Analyzer = &analysis.Analyzer{
	Name: "handleleak",
	Doc:  "task handles must be consulted (Err/Done/Wait/Outcome) or their failures observed via Wait/Close; Close errors must not be silently dropped",
	Run:  run,
}

// submitters are the methods returning handles; consulters are the Handle
// methods that observe an outcome; sinks are the barrier-level calls whose
// error carries the first task failure.
var (
	submitters = map[string]bool{"Submit": true, "SubmitAll": true, "TrySubmitAll": true, "MustSubmit": true}
	consulters = map[string]bool{"Err": true, "Done": true, "Wait": true, "Outcome": true}
	sinks      = map[string]bool{"Wait": true, "WaitOn": true, "Close": true}
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// checkFunc analyses one top-level function together with every function
// literal nested in it: handles submitted in a closure are routinely
// awaited (or Closed) by the enclosing function, so the function is the
// smallest honest scope.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	parents := buildParents(fd)

	// Pass 1: function-wide facts.
	hasSink := false                   // a barrier-level error is consulted somewhere
	escaped := map[types.Object]bool{} // idents passed to other functions
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					escaped[obj] = true
				}
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sinks[sel.Sel.Name] && valueUsed(parents, call) {
			hasSink = true
		}
		return true
	})

	// Pass 2: submission sites and Close statements.
	tracked := map[types.Object]ast.Node{} // handle var -> def site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isModuleClose(pass, call, sel) && !valueUsed(parents, call) {
			// A function that already consults a barrier-level error
			// (Wait/WaitOn/another checked Close) has observed the run's
			// failure; its dropped Close is shutdown, not swallowing.
			if _, blanked := blankAssigned(parents, call); !blanked && !hasSink {
				pass.Reportf(call.Pos(),
					"%s.Close error dropped; Close reports the first task failure of the whole run — check it, or discard explicitly with _ = %s.Close()",
					exprText(sel.X), exprText(sel.X))
			}
			return true
		}
		if !submitters[sel.Sel.Name] || !returnsHandle(pass, call) {
			return true
		}
		excused := hasSink || receiverDelegated(pass, sel.X, escaped)
		switch parent := parents[call].(type) {
		case *ast.ExprStmt:
			if !excused {
				pass.Reportf(call.Pos(),
					"task handle from %s dropped and no task failure is observed in this function; consult the handle (Err/Done/Wait/Outcome) or check the error of Runtime.Wait/Close",
					sel.Sel.Name)
			}
		case *ast.AssignStmt:
			target := assignTarget(parent, call)
			switch t := target.(type) {
			case *ast.Ident:
				if t.Name == "_" {
					if !excused {
						pass.Reportf(call.Pos(),
							"task handle from %s discarded as _ and no task failure is observed in this function; consult the handle or check the error of Runtime.Wait/Close",
							sel.Sel.Name)
					}
				} else if obj := pass.TypesInfo.Defs[t]; obj != nil && !excused {
					tracked[obj] = call
				}
			}
		}
		return true
	})

	// Pass 3: do tracked handle variables ever get consulted or escape?
	for len(tracked) > 0 {
		derived := map[types.Object]ast.Node{}
		verdict := map[types.Object]string{} // "" = leak
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				return true
			}
			site, isTracked := tracked[obj]
			if !isTracked {
				return true
			}
			switch use := useKind(pass, parents, id); use {
			case useConsulted, useEscaped:
				verdict[obj] = "ok"
			case useRanged:
				// range h { … }: the element variable inherits the
				// obligation — a loop that only reads Name() still leaks.
				if rng, ok := climb(parents, id).(*ast.RangeStmt); ok {
					if v, ok := rng.Value.(*ast.Ident); ok && v.Name != "_" {
						if vobj := pass.TypesInfo.Defs[v]; vobj != nil {
							derived[vobj] = site
							verdict[obj] = "ok" // obligation moves to the element var
						}
					} else {
						verdict[obj] = "ok" // range with discarded element: indexing style; assume consulted
					}
				}
			}
			return true
		})
		for obj, site := range tracked {
			if verdict[obj] == "" {
				pass.Reportf(site.Pos(),
					"handle %q is never consulted (Err/Done/Wait/Outcome) and does not escape; its task's failure would be silently swallowed",
					obj.Name())
			}
		}
		tracked = derived
	}
}

// useKind classifies one use of a tracked identifier.
type kind int

const (
	useNeutral kind = iota
	useConsulted
	useEscaped
	useRanged
)

func useKind(pass *analysis.Pass, parents map[ast.Node]ast.Node, id *ast.Ident) kind {
	var cur ast.Node = id
	for {
		parent := parents[cur]
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.IndexExpr:
			if p.X == cur {
				cur = p
				continue
			}
			return useNeutral
		case *ast.SelectorExpr:
			if p.X == cur && consulters[p.Sel.Name] {
				return useConsulted
			}
			return useNeutral
		case *ast.RangeStmt:
			if p.X == cur {
				return useRanged
			}
			return useNeutral
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == cur {
					return useEscaped
				}
			}
			return useNeutral
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			return useEscaped
		case *ast.UnaryExpr:
			if p.Op.String() == "&" {
				return useEscaped
			}
			return useNeutral
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == cur {
					return useEscaped // stored somewhere else; stop tracking
				}
			}
			return useNeutral
		default:
			return useNeutral
		}
	}
}

// climb returns the nearest non-expression ancestor of id.
func climb(parents map[ast.Node]ast.Node, id *ast.Ident) ast.Node {
	cur := parents[id]
	for {
		if _, ok := cur.(ast.Stmt); ok {
			return cur
		}
		next := parents[cur]
		if next == nil {
			return cur
		}
		cur = next
	}
}

// buildParents records each node's parent within the function.
func buildParents(fd *ast.FuncDecl) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(fd, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// valueUsed reports whether the call's results are consumed: anything but a
// statement position or an all-blank assignment.
func valueUsed(parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	switch parent := parents[call].(type) {
	case *ast.ExprStmt:
		return false
	case *ast.DeferStmt, *ast.GoStmt:
		return false
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				return true
			}
		}
		return false
	}
	return true
}

// blankAssigned reports whether the call sits in an assignment whose
// targets are all blank — the explicit-discard form.
func blankAssigned(parents map[ast.Node]ast.Node, call *ast.CallExpr) (*ast.AssignStmt, bool) {
	parent, ok := parents[call].(*ast.AssignStmt)
	if !ok {
		return nil, false
	}
	for _, lhs := range parent.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return parent, false
		}
	}
	return parent, true
}

// assignTarget returns the LHS expression bound to the call's first result
// (the handle position of Submit/SubmitAll, the only result of MustSubmit).
func assignTarget(assign *ast.AssignStmt, call *ast.CallExpr) ast.Expr {
	if len(assign.Rhs) == 1 {
		if len(assign.Lhs) > 0 && assign.Rhs[0] == call {
			return assign.Lhs[0]
		}
		return nil
	}
	for i, rhs := range assign.Rhs {
		if rhs == call && i < len(assign.Lhs) {
			return assign.Lhs[i]
		}
	}
	return nil
}

// returnsHandle reports whether the call's result type involves
// *starss.Handle (directly, in a slice, or as the first element of a
// tuple).
func returnsHandle(pass *analysis.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if tup, ok := t.(*types.Tuple); ok && tup.Len() > 0 {
		t = tup.At(0).Type()
	}
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	return analysis.IsNamed(t, starssPath, "Handle")
}

// isModuleClose reports whether the call is x.Close() on an error-returning
// Close method declared in this module.
func isModuleClose(pass *analysis.Pass, call *ast.CallExpr, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Close" {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	return types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type())
}

// receiverDelegated reports whether the submit receiver is handed to some
// other function in this scope — shutdown helpers (mustClose(t, rt)) carry
// the error-observation duty with them. A non-identifier receiver (s.rt)
// is conservatively treated as delegated.
func receiverDelegated(pass *analysis.Pass, recv ast.Expr, escaped map[types.Object]bool) bool {
	id, ok := recv.(*ast.Ident)
	if !ok {
		return true
	}
	obj := pass.TypesInfo.Uses[id]
	return obj == nil || escaped[obj]
}

// exprText renders a receiver expression for diagnostics.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "()"
	case *ast.IndexExpr:
		return exprText(e.X) + "[…]"
	}
	return "x"
}
