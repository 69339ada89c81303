// Package analysis is the dependency-free core of nexusvet, the project's
// static checker for the two conventions of the runtime's API that its
// tests cannot see: handle-error consumption and context threading.
//
// It deliberately mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so the analyzers read like standard vet
// checks, but it is implemented entirely on the standard library's go/ast,
// go/types and go/importer: the repository builds hermetically, with no
// module downloads, and the checker must too. cmd/nexusvet puts the
// `go vet -vettool=` unit-checker protocol on top of this package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a single
	// lower-case word.
	Name string
	// Doc is the one-line invariant statement shown by `nexusvet help`.
	Doc string
	// Run inspects one type-checked package and reports findings through
	// the pass. A returned error aborts the whole run (it signals a broken
	// analyzer, not a finding).
	Run func(*Pass) error
}

// Diagnostic is one finding, attributed to the analyzer that raised it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Package bundles one loaded, type-checked package for the drivers.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info populated with every map the analyzers use.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Run executes the analyzers over one package and returns their
// diagnostics in position order.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// IsNamed reports whether t (after stripping pointers and aliases) is the
// named type pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
