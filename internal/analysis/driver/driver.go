// Package driver runs the nexusvet analyzer suite as a `go vet -vettool=`
// unit checker (vet.go) using only the standard library: cmd/go compiles the
// dependencies and hands over gc export data for every import, and the one
// package under analysis is parsed from source and type-checked with
// go/importer's lookup-based gc importer. No network, no module downloads, no
// golang.org/x/tools — the same hermetic constraint as the rest of the
// repository.
package driver

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"strings"

	"nexuspp/internal/analysis"
)

// cleanPath strips the test-variant annotation: "p [p.test]" -> "p".
func cleanPath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// checkPackage parses and type-checks one package from source, resolving
// imports through lookup, and runs the analyzers. goVersion pins the
// language version (the vet protocol supplies it).
// Returned diagnostics are fully rendered "file:line:col: message [name]"
// strings.
func checkPackage(path, dir string, goFiles []string, lookup func(string) (io.ReadCloser, error),
	analyzers []*analysis.Analyzer, goVersion string) ([]string, error) {

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		if !filepath.IsAbs(name) && dir != "" {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var typeErr error
	conf := types.Config{
		Importer:  importer.ForCompiler(fset, "gc", lookup),
		GoVersion: goVersion,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	info := analysis.NewInfo()
	tpkg, _ := conf.Check(path, fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("type-checking failed: %v", typeErr)
	}
	pkg := &analysis.Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	rendered := make([]string, len(diags))
	for i, d := range diags {
		rendered[i] = fmt.Sprintf("%s: %s [%s]", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	return rendered, nil
}
