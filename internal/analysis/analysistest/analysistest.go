// Package analysistest runs one analyzer over a fixture package under
// testdata/src and checks its diagnostics against `// want "regex"`
// comments in the fixture sources — the same contract as
// golang.org/x/tools/go/analysis/analysistest, rebuilt on the standard
// library so the checker's tests are as hermetic as the checker.
//
// Every import in a fixture resolves from testdata/src too, including
// "context": the stub there shadows the real standard library.
// That keeps fixtures self-contained and lets them live at the real
// package paths the analyzers scope themselves by (nexuspp/internal/...).
//
// The want contract doubles as the negative control the suite requires:
// a fixture line carrying `// want` fails the test when the analyzer is
// disabled or broken, because the expected diagnostic never arrives.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nexuspp/internal/analysis"
)

// TestData returns the shared fixture root, internal/analysis/testdata,
// resolved relative to the calling analyzer package's directory.
func TestData() string {
	return filepath.Join("..", "testdata")
}

// Run loads testdata/src/<path>, applies exactly one analyzer, and
// reports any divergence between its diagnostics and the fixture's
// `// want` expectations as test errors.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, path string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &fixtureImporter{
		root: filepath.Join(testdata, "src"),
		fset: fset,
		pkgs: make(map[string]*types.Package),
	}
	files, err := parseDir(fset, filepath.Join(imp.root, filepath.FromSlash(path)))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", path, err)
	}
	diags, err := analysis.Run(&analysis.Package{
		Fset: fset, Files: files, Types: tpkg, Info: info,
	}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}

	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		if !wants.match(k, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
		}
	}
	wants.reportUnmatched(t)
}

type key struct {
	file string
	line int
}

type want struct {
	pos     token.Position
	re      *regexp.Regexp
	matched bool
}

type wantSet map[key][]*want

// match consumes one expectation at k whose regexp matches msg.
func (ws wantSet) match(k key, msg string) bool {
	for _, w := range ws[k] {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	var misses []*want
	for _, list := range ws {
		for _, w := range list {
			if !w.matched {
				misses = append(misses, w)
			}
		}
	}
	sort.Slice(misses, func(i, j int) bool {
		a, b := misses[i].pos, misses[j].pos
		return a.Filename < b.Filename || (a.Filename == b.Filename && a.Line < b.Line)
	})
	for _, w := range misses {
		t.Errorf("%s: expected diagnostic matching %q was not reported", w.pos, w.re)
	}
}

// wantRx extracts the Go-quoted regexp operands of a want comment.
var wantRx = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// collectWants parses every `// want "rx" ["rx"...]` comment. The
// expectation applies to the comment's own line.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) wantSet {
	t.Helper()
	ws := make(wantSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text, ok = strings.CutPrefix(strings.TrimSpace(text), "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				quoted := wantRx.FindAllString(text, -1)
				if len(quoted) == 0 {
					t.Errorf("%s: malformed want comment: no quoted regexp", pos)
					continue
				}
				for _, q := range quoted {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Errorf("%s: malformed want operand %s: %v", pos, q, err)
						continue
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, s, err)
						continue
					}
					k := key{pos.Filename, pos.Line}
					ws[k] = append(ws[k], &want{pos: pos, re: re})
				}
			}
		}
	}
	return ws
}

// fixtureImporter type-checks fixture dependencies recursively from the
// testdata/src tree. It never consults the real build environment.
type fixtureImporter struct {
	root    string
	fset    *token.FileSet
	pkgs    map[string]*types.Package
	loading []string
}

func (imp *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := imp.pkgs[path]; ok {
		return pkg, nil
	}
	for _, p := range imp.loading {
		if p == path {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
	}
	imp.loading = append(imp.loading, path)
	defer func() { imp.loading = imp.loading[:len(imp.loading)-1] }()

	files, err := parseDir(imp.fset, filepath.Join(imp.root, filepath.FromSlash(path)))
	if err != nil {
		return nil, fmt.Errorf("fixture dependency %q: %w", path, err)
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, imp.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("fixture dependency %q: %w", path, err)
	}
	imp.pkgs[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file directly inside dir, in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	return files, nil
}
