package driver

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"nexuspp/internal/analysis"
)

// The `go vet -vettool=` unit-checker protocol, reimplemented on the
// standard library. cmd/go drives the tool in three ways:
//
//	tool -V=full        print an identification line (build cache key)
//	tool -flags         print the tool's analyzer flags as JSON
//	tool <file>.cfg     analyze one package described by the JSON config
//
// The config carries the file set of exactly one package plus the export
// data of everything it imports (PackageFile/ImportMap), so a unit check
// needs no go/packages machinery at all. Facts (vetx files) exist in the
// protocol for analyzers that exchange information across packages; this
// suite is fact-free, so the tool writes an empty vetx and skips
// VetxOnly (dependency-prepass) invocations entirely.

// vetConfig mirrors the JSON written by cmd/go for a vet tool run.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the tool's entry point; cmd/nexusvet calls it with the full suite.
// It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer, analyzers []*analysis.Analyzer) int {
	if len(args) == 1 {
		switch args[0] {
		case "-V=full", "-V":
			// cmd/go hashes this line into the build cache key; bump the
			// version when analyzer behaviour changes to invalidate cached
			// vet results.
			fmt.Fprintln(stdout, "nexusvet version v1.0.0")
			return 0
		case "-flags":
			fmt.Fprintln(stdout, "[]")
			return 0
		case "help", "-help", "--help":
			printHelp(stdout, analyzers)
			return 0
		}
		if strings.HasSuffix(args[0], ".cfg") {
			return vetUnit(args[0], stderr, analyzers)
		}
	}
	printHelp(stderr, analyzers)
	return 1
}

func printHelp(w io.Writer, analyzers []*analysis.Analyzer) {
	fmt.Fprintln(w, "nexusvet statically enforces the runtime's concurrency invariants.")
	fmt.Fprintln(w, "It is a go vet tool and loads no packages of its own.")
	fmt.Fprintln(w, "\nusage:")
	fmt.Fprintln(w, "  go vet -vettool=$(which nexusvet) ./...")
	fmt.Fprintln(w, "\nanalyzers:")
	for _, a := range analyzers {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(w, "\nsuppression (reason mandatory, same line or the line above):")
	fmt.Fprintln(w, "  //nexusvet:ignore <analyzer>[,<analyzer>] <reason>")
}

// vetUnit analyzes the single package described by a cmd/go vet config.
func vetUnit(cfgPath string, stderr io.Writer, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "nexusvet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "nexusvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The vetx file must exist even when empty: cmd/go caches it as the
	// package's facts output.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			_ = os.WriteFile(cfg.VetxOutput, nil, 0o666)
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return 0
	}
	lookup := func(importPath string) (io.ReadCloser, error) {
		resolved := importPath
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			resolved = mapped
		}
		file, ok := cfg.PackageFile[resolved]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", resolved)
		}
		return os.Open(file)
	}
	diags, err := checkPackage(cleanPath(cfg.ImportPath), cfg.Dir, cfg.GoFiles, lookup, analyzers, cfg.GoVersion)
	writeVetx()
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "nexusvet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
