// Command nexusvet statically enforces the two invariants of the runtime's
// API that its tests cannot see: handle-error consumption (handleleak) and
// context threading (ctxflow). See DESIGN.md "Statically enforced
// invariants" for the change each one stops that the tests miss.
//
// It is a go vet tool (the unit-checker protocol) and nothing else — cmd/go
// loads the packages, in-package test files included:
//
//	go vet -vettool=$(pwd)/bin/nexusvet ./...
//
// Findings exit nonzero; they are fixed, in the code or in the analyzer,
// never silenced.
//
// The protocol is reimplemented on the standard library. cmd/go drives the
// tool in three ways:
//
//	nexusvet -V=full     print an identification line (build cache key)
//	nexusvet -flags      print the tool's analyzer flags as JSON
//	nexusvet <file>.cfg  analyze one package described by the JSON config
//
// The config carries the file set of exactly one package plus the gc export
// data of everything it imports (PackageFile/ImportMap), so the package is
// parsed from source and type-checked with go/importer's lookup-based
// importer: no go/packages, no golang.org/x/tools, no module downloads.
// Facts (vetx files) exist in the protocol for analyzers that exchange
// information across packages; this suite is fact-free, so the tool writes
// an empty vetx and skips VetxOnly (dependency-prepass) invocations.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nexuspp/internal/analysis"
	"nexuspp/internal/analysis/ctxflow"
	"nexuspp/internal/analysis/handleleak"
)

// analyzers is the suite, in stable order.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	handleleak.Analyzer,
}

func main() {
	args := os.Args[1:]
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "-V":
			// cmd/go hashes this line into the build cache key; bump the
			// version when analyzer behaviour changes to invalidate cached
			// vet results.
			fmt.Println("nexusvet version v1.1.0")
			return
		case "-flags":
			fmt.Println("[]")
			return
		case "help", "-help", "--help":
			printHelp(os.Stdout)
			return
		}
		if strings.HasSuffix(args[0], ".cfg") {
			os.Exit(vetUnit(args[0]))
		}
	}
	printHelp(os.Stderr)
	os.Exit(1)
}

func printHelp(w io.Writer) {
	fmt.Fprintln(w, "nexusvet statically enforces the runtime's concurrency invariants.")
	fmt.Fprintln(w, "It is a go vet tool and loads no packages of its own.")
	fmt.Fprintln(w, "\nusage:")
	fmt.Fprintln(w, "  go vet -vettool=$(which nexusvet) ./...")
	fmt.Fprintln(w, "\nanalyzers:")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
}

// vetConfig is the part of cmd/go's vet config the tool reads.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes the single package described by a cmd/go vet config and
// returns the exit code: 0 clean, 1 broken input, 2 findings.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nexusvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nexusvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The vetx file must exist even when empty: cmd/go caches it as the
	// package's facts output.
	if cfg.VetxOutput != "" {
		_ = os.WriteFile(cfg.VetxOutput, nil, 0o666)
	}
	if cfg.VetxOnly {
		return 0
	}
	lookup := func(importPath string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		file, ok := cfg.PackageFile[importPath]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", importPath)
		}
		return os.Open(file)
	}
	// A test variant ("p [p.test]") is type-checked as p, so that its own
	// declarations match the analyzers' package paths.
	path, _, _ := strings.Cut(cfg.ImportPath, " [")
	diags, err := checkPackage(path, cfg.Dir, cfg.GoFiles, lookup, cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "nexusvet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// checkPackage parses and type-checks one package from source, resolving
// imports through lookup, and runs the suite. goVersion pins the language
// version (the vet protocol supplies it). Diagnostics come back rendered as
// "file:line:col: message [analyzer]".
func checkPackage(path, dir string, goFiles []string, lookup importer.Lookup, goVersion string) ([]string, error) {
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
	pkg := &analysis.Package{Fset: fset, Files: files, Types: tpkg, Info: info}
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
