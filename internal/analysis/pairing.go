package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/cfg"
)

// Pairing is the resource-lifecycle checker: functions annotated with
// //parcelvet:acquire name obtain a resource their callers must hand back
// through a //parcelvet:release or //parcelvet:transfer function on every
// control-flow path. The analyzer runs a forward may-analysis over each
// function's control-flow graph and reports any return path that still holds
// an acquired resource — the static form of the leaks that otherwise surface
// as sendq reservations that never drain, mux windows that never re-open,
// pooled frame buffers that never return, and single-flight channels that
// never close.
//
// Annotation grammar, on the declaration's doc comment:
//
//	//parcelvet:acquire <resource>   calling this function hands the caller
//	                                 one unit of <resource>. If the function
//	                                 returns bool the acquisition holds only
//	                                 on the true result; if its last result
//	                                 is error, only when that error is nil.
//	//parcelvet:release <resource>   calling this function returns the unit.
//	//parcelvet:transfer <resource>  calling this function takes ownership
//	                                 (enqueue/park handoff): the caller no
//	                                 longer holds the unit, the new owner's
//	                                 drain path releases it.
//
// A function annotated acquire may itself return while holding the resource
// — it is the source its callers draw from. A deferred release/transfer
// covers every exit of the enclosing function.
var Pairing = &analysis.Analyzer{
	Name: "pairing",
	Doc: "check //parcelvet:acquire resources are released or transferred on " +
		"every path (sendq reservations, mux windows, pooled frame buffers, " +
		"single-flight channels)",
	Run: runPairing,
}

var pairRe = regexp.MustCompile(`^//parcelvet:(acquire|release|transfer)\s+([a-z][a-z0-9_]*)\s*$`)

// pairKind is an annotation's role in a resource's lifecycle.
type pairKind int

const (
	pairAcquire pairKind = iota
	pairRelease
	pairTransfer
)

// condKind says when an acquire-annotated call actually acquires: always,
// only on a true bool result, or only on a nil trailing error.
type condKind int

const (
	condAlways condKind = iota
	condBool
	condErr
)

// pairAnno is one parsed lifecycle annotation on a function.
type pairAnno struct {
	kind pairKind
	res  string
	cond condKind // meaningful for pairAcquire only
}

// pairingSeeds carries the annotations across package boundaries without
// fact plumbing, like pooledTypes: the in-source doc comments are
// authoritative in-package (framebuf, muxwin, pushq, flight), and callers in
// other packages resolve the functions listed here by import-path suffix.
var pairingSeeds = map[string]map[string][]pairAnno{
	"internal/parcelnet": {
		// Pooled frame buffers: every buffer handed out by the framed reader
		// goes back through ReleaseFrameBuf exactly once.
		"ReadFramePooled": {{kind: pairAcquire, res: "framebuf", cond: condErr}},
		"ReleaseFrameBuf": {{kind: pairRelease, res: "framebuf"}},
	},
}

// runPairing checks every function body against the lifecycle annotations.
func runPairing(pass *analysis.Pass) (any, error) {
	return runPairingImpl(pass, collectAllows(pass, "pairing"))
}

// runPairingImpl is the directive-injectable body: staleallow shadow-runs it
// with a shared, usage-tracked allow set.
func runPairingImpl(pass *analysis.Pass, al *allows) (any, error) {
	local := collectPairAnnos(pass)
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPairing(pass, al, local, fd)
		}
	}
	return nil, nil
}

// collectPairAnnos parses every lifecycle annotation on this package's
// function declarations, keyed by the declared *types.Func. The acquire
// conditionality is derived from the signature: bool-returning acquires hold
// on true, error-returning acquires hold on nil error, everything else holds
// unconditionally.
func collectPairAnnos(pass *analysis.Pass) map[*types.Func][]pairAnno {
	out := map[*types.Func][]pairAnno{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			for _, c := range fd.Doc.List {
				m := pairRe.FindStringSubmatch(strings.TrimSpace(c.Text))
				if m == nil {
					continue
				}
				a := pairAnno{res: m[2]}
				switch m[1] {
				case "acquire":
					a.kind = pairAcquire
					a.cond = acquireCond(fn.Type().(*types.Signature))
				case "release":
					a.kind = pairRelease
				case "transfer":
					a.kind = pairTransfer
				}
				out[fn] = append(out[fn], a)
			}
		}
	}
	return out
}

// acquireCond classifies an acquire function's signature: trailing error →
// conditional on nil error; single bool → conditional on true; else always.
func acquireCond(sig *types.Signature) condKind {
	res := sig.Results()
	if res.Len() == 0 {
		return condAlways
	}
	last := res.At(res.Len() - 1).Type()
	if types.Identical(last, types.Universe.Lookup("error").Type()) {
		return condErr
	}
	if res.Len() == 1 {
		if b, ok := last.Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
			return condBool
		}
	}
	return condAlways
}

// annosFor resolves the lifecycle annotations of a call's callee: the
// in-package parse first, then the cross-package seed table by import-path
// suffix.
func annosFor(pass *analysis.Pass, local map[*types.Func][]pairAnno, call *ast.CallExpr) []pairAnno {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return nil
	}
	if as, ok := local[fn]; ok {
		return as
	}
	if fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return nil
	}
	path := fn.Pkg().Path()
	for entry, funcs := range pairingSeeds {
		if path == entry || strings.HasSuffix(path, "/"+entry) {
			return funcs[fn.Name()]
		}
	}
	return nil
}

// resSet is the dataflow fact: the set of resources held at a program point.
type resSet map[string]bool

func (s resSet) clone() resSet {
	c := make(resSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s resSet) equal(o resSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// condAcq is a conditional acquisition whose result landed in a variable:
// the branch on that variable decides whether the resource is held.
type condAcq struct {
	res    string
	isBool bool // true: bool result var; false: error result var
}

// checkPairing runs the forward may-analysis over fd's CFG and reports every
// return path that still holds a resource the function is not itself
// annotated to hand out.
func checkPairing(pass *analysis.Pass, al *allows, local map[*types.Func][]pairAnno, fd *ast.FuncDecl) {
	// Exempt resources: the enclosing function is the acquire source (its
	// callers take over) or an explicit transfer point.
	exempt := map[string]bool{}
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		for _, a := range local[fn] {
			if a.kind == pairAcquire || a.kind == pairTransfer {
				exempt[a.res] = true
			}
		}
	}

	// Pre-scan: map result variables of conditional acquires to their
	// resource, and collect resources covered by a deferred release.
	condVars := map[types.Object]condAcq{}
	deferred := map[string]bool{}
	interesting := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, a := range annosFor(pass, local, call) {
				if a.kind != pairAcquire {
					continue
				}
				interesting = true
				if a.cond == condAlways || len(n.Lhs) == 0 {
					continue
				}
				// The governing variable: the sole bool result, or the
				// trailing error result.
				id, ok := ast.Unparen(n.Lhs[len(n.Lhs)-1]).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil {
					condVars[obj] = condAcq{res: a.res, isBool: a.cond == condBool}
				}
			}
		case *ast.DeferStmt:
			for _, a := range annosFor(pass, local, n.Call) {
				if a.kind == pairRelease || a.kind == pairTransfer {
					deferred[a.res] = true
				}
			}
		case *ast.CallExpr:
			if len(annosFor(pass, local, n)) > 0 {
				interesting = true
			}
		}
		return true
	})
	if !interesting {
		return
	}

	g := cfg.New(fd.Body, func(call *ast.CallExpr) bool {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			return false
		}
		return true
	})

	// Forward may-analysis to a fixpoint: union at joins, so a resource held
	// on any path into a return is reported.
	in := make([]resSet, len(g.Blocks))
	out := make([]resSet, len(g.Blocks))
	for i := range g.Blocks {
		in[i], out[i] = resSet{}, resSet{}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			if !b.Live {
				continue
			}
			cur := in[b.Index].clone()
			for _, n := range b.Nodes {
				applyPairNode(pass, local, condVars, n, cur)
			}
			if !cur.equal(out[b.Index]) {
				out[b.Index] = cur
				changed = true
			}
			for si, succ := range b.Succs {
				next := cur.clone()
				if res, branch, ok := condAcquireEdge(pass, local, condVars, b); ok {
					if si == branch {
						next[res] = true
					}
				}
				merged := in[succ.Index]
				grew := false
				for k := range next {
					if !merged[k] {
						merged[k] = true
						grew = true
					}
				}
				if grew {
					changed = true
				}
			}
		}
	}

	// Report at every exit still holding a non-exempt, non-deferred resource.
	for _, b := range g.Blocks {
		if !b.Live || len(b.Succs) > 0 {
			continue
		}
		held := out[b.Index]
		var leaks []string
		for res := range held {
			if !exempt[res] && !deferred[res] {
				leaks = append(leaks, res)
			}
		}
		if len(leaks) == 0 {
			continue
		}
		sort.Strings(leaks)
		pos := exitPos(fd, b)
		for _, res := range leaks {
			al.report(pass, pos,
				"acquired resource %q escapes %s without release or transfer on this path",
				res, fd.Name.Name)
		}
	}
}

// applyPairNode folds one CFG node into the held set: unconditional acquires
// add, releases and transfers remove. Conditional acquires whose result is
// discarded (plain expression statement) are treated as unconditional — the
// caller is ignoring the signal that decides whether it holds the resource.
func applyPairNode(pass *analysis.Pass, local map[*types.Func][]pairAnno, condVars map[types.Object]condAcq, n ast.Node, cur resSet) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, a := range annosFor(pass, local, call) {
			switch a.kind {
			case pairAcquire:
				if a.cond == condAlways || discardedResult(n, call) {
					cur[a.res] = true
				}
			case pairRelease, pairTransfer:
				delete(cur, a.res)
			}
		}
		return true
	})
}

// discardedResult reports whether call's results are dropped on the floor:
// the node containing it is a bare expression statement or go/defer.
func discardedResult(container ast.Node, call *ast.CallExpr) bool {
	switch c := container.(type) {
	case *ast.ExprStmt:
		return ast.Unparen(c.X) == call
	case *ast.GoStmt:
		return c.Call == call
	case *ast.DeferStmt:
		return c.Call == call
	}
	return false
}

// condAcquireEdge inspects a two-successor block's controlling condition and
// reports which successor (0 = true branch, 1 = false branch) holds the
// conditionally acquired resource:
//
//	if x.reserve(n) { held }            if ok { held }        (bool acquires)
//	if !x.reserve(n) { shed } else ...  if !ok { not held }
//	v, err := Acquire(); if err != nil { not held }           (error acquires)
//	                     if err == nil { held }
func condAcquireEdge(pass *analysis.Pass, local map[*types.Func][]pairAnno, condVars map[types.Object]condAcq, b *cfg.Block) (res string, branch int, ok bool) {
	if len(b.Succs) != 2 || len(b.Nodes) == 0 {
		return "", 0, false
	}
	cond, isExpr := b.Nodes[len(b.Nodes)-1].(ast.Expr)
	if !isExpr {
		return "", 0, false
	}
	return condHolds(pass, local, condVars, ast.Unparen(cond), 0)
}

// condHolds resolves a branch condition to (resource, holding successor).
// branch is the successor taken when the condition is true; negation flips
// it.
func condHolds(pass *analysis.Pass, local map[*types.Func][]pairAnno, condVars map[types.Object]condAcq, cond ast.Expr, branchIfTrue int) (string, int, bool) {
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return condHolds(pass, local, condVars, ast.Unparen(c.X), 1-branchIfTrue)
		}
	case *ast.CallExpr:
		for _, a := range annosFor(pass, local, c) {
			if a.kind == pairAcquire && a.cond == condBool {
				return a.res, branchIfTrue, true
			}
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[c]; obj != nil {
			if ca, ok := condVars[obj]; ok && ca.isBool {
				return ca.res, branchIfTrue, true
			}
		}
	case *ast.BinaryExpr:
		// err != nil / err == nil against a recorded error-acquire variable.
		if c.Op != token.NEQ && c.Op != token.EQL {
			return "", 0, false
		}
		id, nilSide := errNilOperands(c)
		if id == nil || !nilSide {
			return "", 0, false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return "", 0, false
		}
		ca, ok := condVars[obj]
		if !ok || ca.isBool {
			return "", 0, false
		}
		// err == nil: held on the true branch. err != nil: held on the false
		// branch.
		if c.Op == token.EQL {
			return ca.res, branchIfTrue, true
		}
		return ca.res, 1 - branchIfTrue, true
	}
	return "", 0, false
}

// errNilOperands extracts (ident, true) from `ident op nil` / `nil op ident`.
func errNilOperands(b *ast.BinaryExpr) (*ast.Ident, bool) {
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if id, ok := x.(*ast.Ident); ok && isNilIdent(y) {
		return id, true
	}
	if id, ok := y.(*ast.Ident); ok && isNilIdent(x) {
		return id, true
	}
	return nil, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// exitPos picks the position to report a leaking exit: the return statement
// when the block has one, otherwise the function's closing position.
func exitPos(fd *ast.FuncDecl, b *cfg.Block) token.Pos {
	if ret := b.Return(); ret != nil {
		return ret.Pos()
	}
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		if n := b.Nodes[i]; n.Pos().IsValid() {
			return n.Pos()
		}
	}
	return fd.Body.Rbrace
}
