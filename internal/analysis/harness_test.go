package analysis

// A minimal analysistest-style harness. The x/tools copy vendored under
// third_party (the GOROOT cmd/vendor subset) ships the analysis core and the
// unitchecker but not go/analysis/analysistest or go/packages, so fixtures
// are loaded directly: parse testdata/src/<pkg>, typecheck against GOROOT
// source with the "source" importer (offline-safe), build an analysis.Pass
// by hand, and match diagnostics against `// want "regex"` comments on the
// same line — the analysistest convention.

import (
	"fmt"
	"go/ast"
	"go/importer"
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

	"golang.org/x/tools/go/analysis"
)

// wantRe extracts the quoted regexes of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`\bwant\s+((?:"(?:[^"\\]|\\.)*"\s*)+)$`)

var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` regex anchored to a file:line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

func runFixture(t *testing.T, a *analysis.Analyzer, pkgName string) {
	t.Helper()
	got, fset, wants := runAnalyzer(t, a, pkgName)
	matchDiagnostics(t, fset, pkgName, got, wants)
}

// runAnalyzer loads and typechecks one fixture package, runs the analyzer,
// and returns the raw diagnostics plus any `// want` expectations — for
// fixtures (like staleallow's) whose expected reports cannot be expressed as
// trailer comments.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, pkgName string) ([]analysis.Diagnostic, *token.FileSet, []*expectation) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkgName)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture %s: %v", pkgName, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		wants = append(wants, collectWants(t, fset, f)...)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s: no Go files", pkgName)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	// Fixtures load at internal/<name>, where the scope rules see them the
	// way they see the tree's own packages.
	pkg, err := conf.Check("internal/"+pkgName, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkgName, err)
	}

	var got []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:   a,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   map[*analysis.Analyzer]any{},
		Report:     func(d analysis.Diagnostic) { got = append(got, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s on %s: %v", a.Name, pkgName, err)
	}
	return got, fset, wants
}

// collectWants parses every `// want "regex"` trailer in the file's comments.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, q := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
				expr, err := strconv.Unquote(`"` + q[1] + `"`)
				if err != nil {
					t.Fatalf("%s: bad want literal %q: %v", pos, q[1], err)
				}
				re, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s: bad want regex %q: %v", pos, expr, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// matchDiagnostics pairs each diagnostic with an unmatched want on its line
// and fails on surplus in either direction.
func matchDiagnostics(t *testing.T, fset *token.FileSet, pkgName string, got []analysis.Diagnostic, wants []*expectation) {
	t.Helper()
	sort.Slice(got, func(i, j int) bool { return got[i].Pos < got[j].Pos })
	for _, d := range got {
		pos := fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic matching %q", fmt.Sprintf("%s:%d", w.file, w.line), w.re)
		}
	}
	if t.Failed() {
		t.Logf("fixture %s reported %d diagnostic(s), expected %d", pkgName, len(got), len(wants))
	}
}

func TestDeterminism(t *testing.T) {
	for _, fix := range []string{"determ_sim", "determ_sim_clean", "determ_exempt", "determ_cache", "determ_cache_clean", "determ_resil", "determ_resil_clean", "determ_memo", "determ_memo_clean"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, Determinism, fix) })
	}
}

func TestPoolDiscipline(t *testing.T) {
	for _, fix := range []string{"pool_bad", "pool_clean"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, PoolDiscipline, fix) })
	}
}

func TestNoClosure(t *testing.T) {
	for _, fix := range []string{"noclosure_hot", "noclosure_clean", "noclosure_resil", "noclosure_memo"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, NoClosure, fix) })
	}
}

func TestWireErr(t *testing.T) {
	for _, fix := range []string{"wireerr_net", "wireerr_clean"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, WireErr, fix) })
	}
}

func TestPairing(t *testing.T) {
	for _, fix := range []string{"pairing_bad", "pairing_clean"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, Pairing, fix) })
	}
}

func TestLockOrder(t *testing.T) {
	for _, fix := range []string{"lockorder_bad", "lockorder_clean"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, LockOrder, fix) })
	}
}

func TestFrameState(t *testing.T) {
	for _, fix := range []string{"framestate_bad", "framestate_clean"} {
		t.Run(fix, func(t *testing.T) { runFixture(t, FrameState, fix) })
	}
}

// TestStaleAllow asserts the audit's reports by content: a well-formed allow
// directive cannot carry a `// want` trailer without breaking the directive
// grammar's end anchor, so the bad fixture's expectations live here.
func TestStaleAllow(t *testing.T) {
	t.Run("staleallow_bad", func(t *testing.T) {
		got, fset, _ := runAnalyzer(t, StaleAllow, "staleallow_bad")
		wants := []string{
			`stale parcelvet:allow: no pairing finding is suppressed here any more`,
			`parcelvet:allow names unknown analyzer "pairng"`,
		}
		if len(got) != len(wants) {
			for _, d := range got {
				t.Logf("got: %s: %s", fset.Position(d.Pos), d.Message)
			}
			t.Fatalf("reported %d diagnostics, want %d", len(got), len(wants))
		}
		for _, want := range wants {
			found := false
			for _, d := range got {
				if strings.Contains(d.Message, want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no diagnostic containing %q", want)
			}
		}
	})
	t.Run("staleallow_clean", func(t *testing.T) {
		got, fset, _ := runAnalyzer(t, StaleAllow, "staleallow_clean")
		for _, d := range got {
			t.Errorf("unexpected diagnostic: %s: %s", fset.Position(d.Pos), d.Message)
		}
	})
}
