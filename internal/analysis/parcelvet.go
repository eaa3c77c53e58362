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
//   - determinism: sim-deterministic packages must not read wall clocks or
//     the global RNG, and must not let map iteration order reach output.
//   - pooldiscipline: pooled objects (simnet packets/outMsgs, eventsim arena
//     events, minijs frames/arg slices) must not be used after release,
//     escape into fields/globals/maps, be captured by closures, or be
//     returned by non-pool functions.
//   - noclosure: hot packages must schedule continuations with
//     ScheduleArgAt + typed fields, never with capturing closures.
//   - wireerr: parcelnet/netem must never silently discard errors from
//     framed-wire writes, session enqueue wrappers, or deadline setters.
//   - pairing: functions annotated //parcelvet:acquire name must release
//     (or transfer) the resource on every path; flags leaks on early error
//     returns in the proxy admit/shed and mux sender paths.
//   - lockorder: builds the static lock graph over the proxy/objcache/hpack
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
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full parcel-vet suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{Determinism, PoolDiscipline, NoClosure, WireErr, Pairing, LockOrder, FrameState, StaleAllow}
}

// simDeterministic lists the packages whose behaviour must be a pure
// function of their inputs and seeds: everything that runs under the virtual
// clock or feeds the golden-figure metrics. Matched by import-path suffix;
// the bare names are the analysistest fixture packages.
var simDeterministic = map[string]bool{
	"internal/eventsim":    true,
	"internal/simnet":      true,
	"internal/httpsim":     true,
	"internal/dnssim":      true,
	"internal/experiments": true,
	"internal/scenario":    true,
	"internal/runner":      true,
	"internal/minijs":      true,
	"internal/browser":     true,
	"internal/webgen":      true,
	"internal/sched":       true,
	"internal/radio":       true,
	"internal/energy":      true,
	"internal/stats":       true,
	"internal/trace":       true,
	// Packages beyond the core list that are also pure functions of the
	// simulation state.
	"internal/core":         true,
	"internal/cloudbrowser": true,
	"internal/dirbrowser":   true,
	"internal/spdybrowser":  true,
	"internal/mhtml":        true,
	"internal/htmlparse":    true,
	"internal/cssparse":     true,
	"internal/metrics":      true,
	// The cross-session object cache sits on both arms: the fleet simulation
	// shares it between virtual-clock sessions, so recency and eviction must
	// be driven by access order alone — a wall-clock or global-RNG read there
	// would leak real time into golden figures.
	"internal/objcache": true,
	// The resilience layer (retry backoff, breaker cool-downs) sits on both
	// arms too: the simulation threads virtual time and its seeded RNG through
	// it, so a wall-clock or global-RNG read there would make retry schedules
	// — and therefore golden chaos figures — irreproducible.
	"internal/resilience": true,
	// The discovery memo sits on both arms as well: an artifact or a script
	// outcome must be a pure function of its key, and a replay must equal the
	// execution it stands for, so a wall-clock read, a global-RNG draw or a
	// map-ordered effect list there would make one host's recording wrong on
	// the other. Its hosts own the clock and the RNG (Host.SetTimeout, Rand).
	"internal/discovery": true,

	// analysistest fixtures
	"determ_sim":         true,
	"determ_sim_clean":   true,
	"determ_cache":       true,
	"determ_cache_clean": true,
	"determ_resil":       true,
	"determ_resil_clean": true,
	"determ_memo":        true,
	"determ_memo_clean":  true,
}

// realClockAllowlist is the checked-in exemption list: packages that talk to
// real networks, real goroutines, or real time, where wall-clock reads are
// the point. A package must never appear in both tables; Determinism reports
// the contradiction if it does.
var realClockAllowlist = map[string]bool{
	"internal/parcelnet": true,
	"internal/netem":     true,
	"internal/replay":    true,
	"internal/leakcheck": true,

	// analysistest fixture
	"determ_exempt": true,
}

// hotPackages lists the packages under the PR 2 closure-free-continuation
// rule: everything on or feeding the per-packet/per-event simulation path.
var hotPackages = map[string]bool{
	"internal/eventsim":     true,
	"internal/simnet":       true,
	"internal/httpsim":      true,
	"internal/dnssim":       true,
	"internal/radio":        true,
	"internal/core":         true,
	"internal/browser":      true,
	"internal/cloudbrowser": true,
	"internal/dirbrowser":   true,
	"internal/spdybrowser":  true,
	// The batch dispatch path: MapBatches workers and the multiplexed
	// session loop schedule continuations on shared arenas, so stray
	// closures there defeat the same pooling the simulation path protects.
	"internal/runner":      true,
	"internal/experiments": true,
	// The resilience layer schedules retry continuations on the simulation
	// arm; a capturing closure per retry would allocate on the same per-event
	// path the rule protects.
	"internal/resilience": true,
	// The shared script environment runs inside the engine's per-script path
	// on the simulation arm; timers belong to the host, so nothing here
	// should schedule at all, let alone with a capturing closure.
	"internal/discovery": true,

	// analysistest fixtures
	"noclosure_hot":   true,
	"noclosure_clean": true,
	"noclosure_resil": true,
	"noclosure_memo":  true,
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
// suffix. This table is what makes cross-package discipline work without
// fact plumbing: a package storing an eventsim.Event into a field is checked
// against it even though the `//parcelvet:pooled` marker lives in eventsim's
// source. In-package, the marker comment on the type declaration is
// authoritative (and is how fixture packages declare pooled types).
var pooledTypes = map[string][]string{
	"internal/simnet":   {"packet", "outMsg"},
	"internal/eventsim": {"Event"},
	"internal/minijs":   {"frame"},
	"internal/httpsim":  {"pendingReq"},
}

// pkgMatch reports whether the package path matches a table entry: exact
// (fixtures) or by path suffix (real packages under any module prefix).
func pkgMatch(table map[string]bool, path string) bool {
	if table[path] {
		return true
	}
	for entry := range table {
		if strings.HasSuffix(path, "/"+entry) {
			return true
		}
	}
	return false
}

// pooledMarker is the doc-comment marker declaring a type pooled.
const pooledMarker = "//parcelvet:pooled"

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

// markedPooledTypes collects the named types in this package whose
// declaration carries the //parcelvet:pooled marker.
func markedPooledTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	marked := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declMarked := hasPooledMarker(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !declMarked && !hasPooledMarker(ts.Doc) && !hasPooledMarker(ts.Comment) {
					continue
				}
				if obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
					marked[obj] = true
				}
			}
		}
	}
	return marked
}

func hasPooledMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), pooledMarker) {
			return true
		}
	}
	return false
}

// isPooled reports whether t (possibly behind pointers) is a pooled type:
// either marked in the current package or listed in the cross-package table.
func isPooled(t types.Type, marked map[*types.TypeName]bool) bool {
	for {
		ptr, ok := t.Underlying().(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if marked[obj] {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	if names, ok := pooledTypes[path]; ok {
		for _, n := range names {
			if n == obj.Name() {
				return true
			}
		}
	}
	for entry, names := range pooledTypes {
		if strings.HasSuffix(path, "/"+entry) {
			for _, n := range names {
				if n == obj.Name() {
					return true
				}
			}
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
