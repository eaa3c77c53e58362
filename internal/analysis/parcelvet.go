// Package analysis implements parcel-vet: a go/analysis suite that turns the
// repository's runtime-checked invariants into static, whole-tree guarantees.
//
// The reproduction's headline claims — bit-identical golden figures,
// exactly-once pooled-packet delivery, zero-alloc hot paths, and bounded
// per-session resources — were previously enforced only when a test happened
// to execute the offending path (-tags simdebug panics, the golden suite,
// the page-load allocation budget). The eight analyzers here catch every
// violation at `go vet` time instead:
//
//   - determinism: sim-deterministic packages (every internal/ package not in
//     realClockPackages) must not read wall clocks or the global RNG, and
//     must not let map iteration order reach output.
//   - pooldiscipline: pooled objects (pooledTypes: simnet packets/outMsgs,
//     eventsim arena events, minijs frames, httpsim pending requests) must not
//     be used after release, escape into fields/globals/maps, be captured by
//     closures, or be returned by non-pool functions.
//   - noclosure: the same packages must schedule continuations with
//     ScheduleArgAt + typed fields, never with capturing closures.
//   - wireerr: parcelnet/netem must never silently discard errors from
//     framed-wire writes, session enqueue wrappers, or deadline setters.
//   - pairing: functions annotated //parcelvet:acquire name must release
//     (or transfer) the resource on every path; flags leaks on early error
//     returns in the session admission and mux sender paths.
//   - lockorder: builds the static lock graph over the parcelnet/objcache
//     mutexes and reports ordering cycles, double-acquisition, and
//     blocking calls made with a spinlock-class mutex held.
//   - framestate: wire frame emissions must come from functions registered
//     in the declared protocol state machine, in legal phase order.
//   - staleallow: //parcelvet:allow directives that no longer suppress any
//     finding are themselves findings, so the reviewed allow set can't rot.
//
// Escapes are explicit and audited: a `//parcelvet:allow name(reason)`
// comment on (or immediately above) the offending line suppresses one
// analyzer's findings there, and an allow with an empty reason is itself a
// finding. Test files (_test.go) are not analyzed: tests may time things,
// double-free on purpose, and discard errors deliberately.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full parcel-vet suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Determinism, PoolDiscipline, NoClosure, WireErr, Pairing, LockOrder, FrameState, StaleAllow}
}

// realClockPackages is the one scope exception. Every other package under
// internal/ is sim-deterministic and closure-free: it runs under the virtual
// clock, feeds the golden-figure metrics, or sits on both arms (the object
// cache, the resilience layer, the discovery memo), so determinism and
// noclosure check it. The packages here talk to real networks, real
// goroutines or real time, where wall-clock reads are the point. The
// analysistest harness loads each fixture at internal/<name>, so fixtures
// follow the same rule.
var realClockPackages = map[string]bool{
	"parcelnet": true,
	"netem":     true,
	"leakcheck": true,
	"analysis":  true, // the analyzers themselves: a build-time tool

	// analysistest fixture
	"determ_exempt": true,
}

// simScoped reports whether the package at path is under determinism and
// noclosure: it lies directly under an internal/ directory and is not a
// real-clock package.
func simScoped(path string) bool {
	i := strings.LastIndex("/"+path, "/internal/")
	if i < 0 {
		return false
	}
	name, _, _ := strings.Cut(path[i+len("internal/"):], "/")
	return !realClockPackages[name]
}

// wirePackages lists the packages carrying the real-network framed-wire
// protocol, where a silently dropped write or deadline error strands a
// session instead of tearing it down.
var wirePackages = map[string]bool{
	"internal/parcelnet": true,
	"internal/netem":     true,

	// analysistest fixtures
	"wireerr_net":   true,
	"wireerr_clean": true,
}

// pooledTypes names the pooled/arena types per package, keyed by import-path
// suffix: the one declaration pooldiscipline checks against, in the owning
// package and in every package that holds one of its objects.
var pooledTypes = map[string][]string{
	"internal/simnet":   {"packet", "outMsg"},
	"internal/eventsim": {"event"},
	"internal/minijs":   {"frame"},
	"internal/httpsim":  {"pendingReq"},

	// analysistest fixtures
	"pool_bad":   {"buf"},
	"pool_clean": {"buf"},
}

// pkgMatch reports whether the package path matches a table entry by path
// suffix: real packages under any module prefix, fixtures under the harness's
// internal/.
func pkgMatch(table map[string]bool, path string) bool {
	for entry := range table {
		if strings.HasSuffix(path, "/"+entry) {
			return true
		}
	}
	return false
}

// allowPrefix starts an in-source escape: //parcelvet:allow name(reason).
const allowPrefix = "//parcelvet:allow"

var allowRe = regexp.MustCompile(`^//parcelvet:allow\s+([a-z]+)\s*(?:\((.*)\))?\s*$`)

// directive is one parsed //parcelvet:allow comment. used is set by
// suppressed() when the directive actually swallows a finding; staleallow
// shadow-runs the suite and reports well-formed directives that end a full
// pass with used still false.
type directive struct {
	analyzer string
	reason   string
	pos      token.Pos
	used     bool
}

// allows indexes the pass's allow directives by file:line for suppression
// lookups and keeps the flat list for staleness auditing.
type allows struct {
	fset   *token.FileSet
	byLine map[string][]*directive
	all    []*directive
}

func lineKey(p token.Position) string {
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// collectAllows parses every //parcelvet:allow directive in the pass and
// reports — on behalf of the named analyzer — directives that name it but
// carry no reason. Escapes must say why, or they are findings themselves.
func collectAllows(pass *analysis.Pass, name string) *allows {
	a := &allows{fset: pass.Fset, byLine: map[string][]*directive{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				m := allowRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					// Malformed or reasonless. Report it exactly once across
					// the suite: by the analyzer it names, or by determinism
					// (the first analyzer) when it names none of them.
					owner := "determinism"
					if m != nil && knownAnalyzer(m[1]) {
						owner = m[1]
					}
					if owner == name {
						pass.Reportf(c.Pos(), "parcelvet:allow directive requires a non-empty reason: %s", text)
					}
					continue
				}
				d := &directive{analyzer: m[1], reason: strings.TrimSpace(m[2]), pos: c.Pos()}
				key := lineKey(pass.Fset.Position(c.Pos()))
				a.byLine[key] = append(a.byLine[key], d)
				a.all = append(a.all, d)
			}
		}
	}
	return a
}

func knownAnalyzer(name string) bool {
	switch name {
	case "determinism", "pooldiscipline", "noclosure", "wireerr",
		"pairing", "lockorder", "framestate", "staleallow":
		return true
	}
	return false
}

// suppressed reports whether a finding by analyzer name at pos is covered by
// an allow directive on the same line or the line directly above, marking
// the covering directive used for the staleness audit.
func (a *allows) suppressed(name string, pos token.Pos) bool {
	p := a.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		key := fmt.Sprintf("%s:%d", p.Filename, line)
		for _, d := range a.byLine[key] {
			if d.analyzer == name {
				d.used = true
				return true
			}
		}
	}
	return false
}

// report emits a diagnostic unless an allow directive suppresses it.
func (a *allows) report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if a.suppressed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}

// isTestFile reports whether the file is a _test.go file; parcel-vet does
// not analyze tests (they time things, double-free on purpose, and discard
// errors deliberately).
func isTestFile(pass *analysis.Pass, f *ast.File) bool {
	name := pass.Fset.Position(f.Pos()).Filename
	return strings.HasSuffix(name, "_test.go")
}

// isPooled reports whether t (possibly behind pointers) is a pooledTypes type.
func isPooled(t types.Type) bool {
	if t == nil {
		return false
	}
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	for entry, names := range pooledTypes {
		if path == entry || strings.HasSuffix(path, "/"+entry) {
			return slices.Contains(names, named.Obj().Name())
		}
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and dynamic calls through variables.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
