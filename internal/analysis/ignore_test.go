package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// load parses one synthetic file and returns it with its fset.
func load(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// diagAt fabricates a finding of analyzer a on the given 1-based line.
func diagAt(fset *token.FileSet, files []*ast.File, line int, a string) Diagnostic {
	file := fset.File(files[0].Pos())
	return Diagnostic{Pos: file.LineStart(line), Message: "finding", Analyzer: a}
}

var known = []string{"lockorder", "handleleak"}

func messages(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Analyzer+": "+d.Message)
	}
	return out
}

func TestIgnoreSuppressesSameLineAndLineBelow(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore lockorder reasoned suppression on the line above
var a = 1
var b = 2 //nexusvet:ignore lockorder trailing form
`)
	diags := []Diagnostic{
		diagAt(fset, files, 4, "lockorder"), // line below the standalone directive
		diagAt(fset, files, 5, "lockorder"), // same line as the trailing directive
	}
	if got := ApplyIgnores(fset, files, diags, known); len(got) != 0 {
		t.Errorf("want all suppressed, got %v", messages(got))
	}
}

func TestIgnoreOnlyNamedAnalyzer(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore lockorder wrong analyzer for this finding
var a = 1
`)
	diags := []Diagnostic{diagAt(fset, files, 4, "handleleak")}
	got := ApplyIgnores(fset, files, diags, known)
	// The handleleak finding survives, and the directive — having
	// suppressed nothing — is reported as stale.
	if len(got) != 2 {
		t.Fatalf("want finding + stale report, got %v", messages(got))
	}
	if got[0].Analyzer != "handleleak" {
		t.Errorf("original finding lost: %v", messages(got))
	}
	if got[1].Analyzer != "nexusvet" || !strings.Contains(got[1].Message, "suppresses nothing") {
		t.Errorf("stale directive not reported: %v", messages(got))
	}
}

func TestIgnoreAnalyzerList(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore lockorder,handleleak one reason covering both findings
var a = 1
`)
	diags := []Diagnostic{diagAt(fset, files, 4, "lockorder"), diagAt(fset, files, 4, "handleleak")}
	if got := ApplyIgnores(fset, files, diags, known); len(got) != 0 {
		t.Errorf("want both suppressed, got %v", messages(got))
	}
}

func TestIgnoreRequiresReason(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore lockorder
var a = 1
`)
	got := ApplyIgnores(fset, files, []Diagnostic{diagAt(fset, files, 4, "lockorder")}, known)
	// A reasonless directive suppresses nothing and is itself reported.
	if len(got) != 2 {
		t.Fatalf("want finding + malformed report, got %v", messages(got))
	}
	if got[1].Analyzer != "nexusvet" || !strings.Contains(got[1].Message, "missing reason") {
		t.Errorf("malformed directive not reported: %v", messages(got))
	}
}

func TestIgnoreRequiresKnownAnalyzer(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore speling this analyzer does not exist
var a = 1
`)
	got := ApplyIgnores(fset, files, nil, known)
	if len(got) != 1 || !strings.Contains(got[0].Message, `unknown analyzer "speling"`) {
		t.Errorf("unknown analyzer not reported: %v", messages(got))
	}
}

func TestIgnoreRequiresAnalyzerList(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore
var a = 1
`)
	got := ApplyIgnores(fset, files, nil, known)
	if len(got) != 1 || !strings.Contains(got[0].Message, "missing analyzer list") {
		t.Errorf("bare directive not reported: %v", messages(got))
	}
}

func TestIgnoreStaleDirectiveReported(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore lockorder the code this excused is long gone
var a = 1
`)
	got := ApplyIgnores(fset, files, nil, known)
	if len(got) != 1 || !strings.Contains(got[0].Message, "suppresses nothing") {
		t.Errorf("stale directive not reported: %v", messages(got))
	}
}

func TestIgnoreProseIsNotADirective(t *testing.T) {
	fset, files := load(t, `package p

// nexusvet:ignore lockorder prose mention with a space is documentation
// Doc comments that merely discuss the nexusvet:ignore convention are
// not directives either.
var a = 1
`)
	diags := []Diagnostic{diagAt(fset, files, 6, "lockorder")}
	got := ApplyIgnores(fset, files, diags, known)
	if len(got) != 1 || got[0].Analyzer != "lockorder" {
		t.Errorf("prose comment treated as directive: %v", messages(got))
	}
}

func TestIgnoreDoesNotReachFurtherLines(t *testing.T) {
	fset, files := load(t, `package p

//nexusvet:ignore lockorder only covers the next line
var a = 1
var b = 2
`)
	diags := []Diagnostic{
		diagAt(fset, files, 4, "lockorder"),
		diagAt(fset, files, 5, "lockorder"), // two lines below: out of the directive's reach
	}
	got := ApplyIgnores(fset, files, diags, known)
	if len(got) != 1 || fset.Position(got[0].Pos).Line != 5 {
		t.Errorf("directive reach wrong: %v", messages(got))
	}
}
