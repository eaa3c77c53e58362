package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// FrameState checks every wire-frame emission against the declared protocol
// state machine. The PARCEL wire protocol has a strict shape — a session
// handshakes (TPageRequest → TMuxSettings), streams open before they carry
// data (TStreamOpen → TStreamData), the TComplete barrier ends the push
// phase, and TDrain is the terminal retire notice — and PR 8/9 enforce it
// dynamically with the writer-goroutine discipline and the complete barrier.
// This analyzer makes the discipline static:
//
//   - every site that emits a frame-type constant (as a write/enqueue call
//     argument, an outFrame composite literal, or the leading byte of an
//     append-assembled frame) must be a function registered for that frame
//     type in the emission table below — a new emitter is a protocol change
//     and must be declared here;
//   - within one function, emissions must respect the phase ranking
//     (handshake < stream-open < data < complete < drain): emitting
//     TStreamData before TStreamOpen, or anything after the TComplete
//     barrier, is reported.
//
// Frame-type *reads* (switch dispatch, comparisons) are not emissions and
// are never flagged.
var FrameState = &analysis.Analyzer{
	Name: "framestate",
	Doc: "check wire-frame emission sites against the declared protocol " +
		"state machine (registered emitters, legal phase order)",
	Run: runFrameState,
}

// framePackages are the packages whose frame-constant writes are checked.
var framePackages = map[string]bool{
	"internal/parcelnet": true,

	// analysistest fixtures
	"framestate_bad":   true,
	"framestate_clean": true,
}

// frameConstRe matches the wire frame-type constants by name.
var frameConstRe = regexp.MustCompile(`^T[A-Z][A-Za-z]*$`)

// framePhase ranks the protocol phases: emissions within a function must be
// non-decreasing. TComplete is the barrier — rank above all data — and
// TDrain is terminal.
var framePhase = map[string]int{
	"TPageRequest": 0, "TMuxSettings": 0,
	"TStreamOpen": 1,
	"TStreamData": 2, "TObjectRequest": 2,
	"TWindowUpdate": 2, "TShed": 2,
	"TComplete": 3,
	"TDrain":    4,
}

// frameEmitters is the declared protocol state machine's emission table:
// the only functions allowed to put each frame type on the wire. The proxy
// side: startPage answers the handshake, shedLocked/drainNotice emit the
// two PR 9 notes from their legal states (admission overflow, proxy drain),
// writeLoop owns the TComplete barrier, and the mux writer goroutine
// (nextFrame) is the sole source of stream frames — the only way object
// bytes are pushed, fallback answers included. The client side:
// RequestPage/reconnect handshake, requestLocked issues fallback requests,
// WriteWindowUpdate is the only flow-control credit writer (the client acks
// only streams it has seen open, so TWindowUpdate stays on live streams by
// construction).
var frameEmitters = map[string]map[string]bool{
	"TPageRequest":   {"RequestPage": true, "reconnect": true},
	"TMuxSettings":   {"startPage": true},
	"TStreamOpen":    {"nextFrame": true},
	"TStreamData":    {"nextFrame": true},
	"TObjectRequest": {"requestLocked": true},
	"TWindowUpdate":  {"WriteWindowUpdate": true},
	"TComplete":      {"writeLoop": true},
	"TShed":          {"shedLocked": true},
	"TDrain":         {"drainNotice": true},
}

func runFrameState(pass *analysis.Pass) (any, error) {
	return runFrameStateImpl(pass, collectAllows(pass, "framestate"))
}

// runFrameStateImpl is the directive-injectable body: staleallow shadow-runs
// it with a shared, usage-tracked allow set.
func runFrameStateImpl(pass *analysis.Pass, al *allows) (any, error) {
	if !pkgMatch(framePackages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFrameEmissions(pass, al, fd)
		}
	}
	return nil, nil
}

// frameEmission is one frame-type constant reaching the wire.
type frameEmission struct {
	frame string
	pos   token.Pos
}

// checkFrameEmissions collects fd's emissions in source order and applies
// the two rules: registered emitter, non-decreasing phase.
func checkFrameEmissions(pass *analysis.Pass, al *allows, fd *ast.FuncDecl) {
	var emits []frameEmission
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if name, ok := frameConstUse(pass, arg); ok {
					emits = append(emits, frameEmission{frame: name, pos: arg.Pos()})
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if name, ok := frameConstUse(pass, v); ok {
					emits = append(emits, frameEmission{frame: name, pos: v.Pos()})
				}
			}
		}
		return true
	})
	if len(emits) == 0 {
		return
	}

	fname := fd.Name.Name
	maxPhase, maxFrame := -1, ""
	for _, e := range emits {
		allowed, known := frameEmitters[e.frame]
		if !known {
			al.report(pass, e.pos,
				"frame type %s is not in the declared protocol state machine: add it to frameEmitters with its phase and legal emitters",
				e.frame)
			continue
		}
		if !allowed[fname] {
			al.report(pass, e.pos,
				"%s emits %s but is not a registered emitter for it: the protocol state machine allows only %s",
				fname, e.frame, emitterList(allowed))
		}
		phase := framePhase[e.frame]
		if phase < maxPhase {
			al.report(pass, e.pos,
				"%s emits %s after %s: protocol phase order violated (%s is phase %d, already past phase %d)",
				fname, e.frame, maxFrame, e.frame, phase, maxPhase)
		}
		if phase > maxPhase {
			maxPhase, maxFrame = phase, e.frame
		}
	}
}

// emitterList renders the allowed-emitter set for a diagnostic.
func emitterList(allowed map[string]bool) string {
	var names []string
	for n := range allowed {
		names = append(names, n)
	}
	if len(names) == 0 {
		return "nothing"
	}
	// Stable output for the fixtures.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return strings.Join(names, "/")
}

// frameConstUse reports whether e is a direct use of a wire frame-type
// constant (T-prefixed, declared in a frame package).
func frameConstUse(pass *analysis.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	c, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok || !frameConstRe.MatchString(c.Name()) {
		return "", false
	}
	if c.Pkg() == nil || !pkgMatch(framePackages, c.Pkg().Path()) {
		return "", false
	}
	return c.Name(), true
}
