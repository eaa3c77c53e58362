package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// WireErr flags discarded errors from framed-wire writes and connection
// deadline setters in the real-network packages. A silently dropped
// WriteFrame strands the peer waiting on a frame that never arrives, and a
// dropped SetReadDeadline error disables the idle-reaping contract — both
// must be logged and tear the session down, never ignored.
var WireErr = &analysis.Analyzer{
	Name: "wireerr",
	Doc: "flag discarded error returns from framed-wire writes (WriteFrame/WriteJSON/" +
		"FrameWriter.Write/enqueueJSONLocked/stageNoteLocked) and deadline setters in parcelnet/netem",
	Run: runWireErr,
}

// deadlineFuncs are the net.Conn deadline setters.
var deadlineFuncs = map[string]bool{
	"SetDeadline":      true,
	"SetReadDeadline":  true,
	"SetWriteDeadline": true,
}

// wireWriteFuncs are the framed-wire write entry points, including the
// parcelmux raw-frame and flow-control writers: a dropped WriteRaw strands a
// stream mid-object and a dropped WriteWindowUpdate deadlocks the sender
// against an exhausted window. enqueueJSONLocked and stageNoteLocked are
// the session-side staging points for the control notes (TDrain/TShed and
// TComplete): dropping their error silently discards the frame, so the client
// never learns the session is draining, that an object was shed, or that the
// page completed.
var wireWriteFuncs = map[string]bool{
	"WriteFrame":        true,
	"WriteJSON":         true,
	"WriteRaw":          true,
	"WriteWindowUpdate": true,
	"enqueueJSONLocked": true,
	"stageNoteLocked":   true,
}

func runWireErr(pass *analysis.Pass) (any, error) {
	return runWireErrImpl(pass, collectAllows(pass, "wireerr"))
}

// runWireErrImpl is the directive-injectable body: staleallow shadow-runs it
// with a shared, usage-tracked allow set.
func runWireErrImpl(pass *analysis.Pass, al *allows) (any, error) {
	if !pkgMatch(wirePackages, pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkWireCall(pass, al, call, "discarded")
				}
			case *ast.GoStmt:
				checkWireCall(pass, al, n.Call, "discarded by go statement")
			case *ast.DeferStmt:
				checkWireCall(pass, al, n.Call, "discarded by defer")
			case *ast.AssignStmt:
				checkWireAssign(pass, al, n)
			}
			return true
		})
	}
	return nil, nil
}

// isWireCall reports whether call is a wire write or deadline setter that
// returns an error.
func isWireCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if name == "" || (!deadlineFuncs[name] && !wireWriteFuncs[name] && name != "Write") {
		return "", false
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	// The bare name "Write" is only the framed-wire writer's method, not
	// every io.Writer in the package.
	if name == "Write" {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return "", false
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "FrameWriter" {
			return "", false
		}
	}
	// Only calls that actually return an error can discard one.
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 {
		return "", false
	}
	last := res.At(res.Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return "", false
	}
	return name, true
}

func checkWireCall(pass *analysis.Pass, al *allows, call *ast.CallExpr, how string) {
	if name, ok := isWireCall(pass, call); ok {
		al.report(pass, call.Pos(),
			"error from %s %s: wire and deadline failures must be logged and tear the session down, never dropped",
			name, how)
	}
}

// checkWireAssign flags wire-call errors assigned to the blank identifier.
func checkWireAssign(pass *analysis.Pass, al *allows, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, ok := isWireCall(pass, call)
	if !ok {
		return
	}
	// The error is the last result; it is discarded when the corresponding
	// (or only) LHS is blank.
	lhs := as.Lhs[len(as.Lhs)-1]
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		al.report(pass, as.Pos(),
			"error from %s assigned to blank identifier: wire and deadline failures must be logged and tear the session down, never dropped",
			name)
	}
}
