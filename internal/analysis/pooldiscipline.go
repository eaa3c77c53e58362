package analysis

import (
	"go/ast"
	"go/types"
	"regexp"

	"golang.org/x/tools/go/analysis"
)

// PoolDiscipline is the static complement to the -tags simdebug runtime
// checks: pooled objects (the types listed in pooledTypes) are owned by
// exactly one holder at a time, returned to their free list exactly once, and
// never referenced afterwards. The runtime check panics only when a test executes the buggy
// path; this analyzer rejects the pattern on every path at vet time.
//
// Reported patterns:
//
//   - use of a variable after it was passed to a free*/release*/put* call in
//     the same function (straight-line: the statements that follow the free
//     in its own and enclosing blocks; sibling branches are not flagged, and
//     a reassignment re-arms the variable);
//   - a pooled pointer captured by a closure;
//   - a pooled pointer stored into a field of a non-pooled struct, into a
//     map, or into a package-level variable;
//   - a pooled pointer returned by a function that is not part of the pool
//     implementation (new*/get*/alloc*/free*/release*/put*).
//
// Pooled-to-pooled field stores stay legal: that is exactly how the simnet
// data path encodes continuations (a packet carrying its *outMsg).
var PoolDiscipline = &analysis.Analyzer{
	Name: "pooldiscipline",
	Doc: "flag use-after-free and ownership escapes (fields, globals, maps, closures, " +
		"returns) of pooled objects (the pooledTypes table)",
	Run: runPoolDiscipline,
}

// freeFuncRe matches the repository's pool-release naming convention
// (releasePacket, releaseOutMsg, freeFrame, putArgs, ...).
var freeFuncRe = regexp.MustCompile(`^(free|release|put)([A-Z]|$)`)

// poolImplRe matches functions that ARE the pool implementation — they may
// move pooled pointers through free-list fields and return fresh objects.
var poolImplRe = regexp.MustCompile(`^(new|get|alloc|free|release|put)([A-Z]|$)`)

func runPoolDiscipline(pass *analysis.Pass) (any, error) {
	return runPoolDisciplineImpl(pass, collectAllows(pass, "pooldiscipline"))
}

// runPoolDisciplineImpl is the directive-injectable body: staleallow
// shadow-runs it with a shared, usage-tracked allow set.
func runPoolDisciplineImpl(pass *analysis.Pass, al *allows) (any, error) {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkUseAfterFree(pass, al, fd)
			checkCaptures(pass, al, fd)
			if !poolImplRe.MatchString(fd.Name.Name) {
				checkEscapes(pass, al, fd)
				checkReturns(pass, al, fd)
			} else {
				// Pool implementations still must not leak pooled pointers
				// into closures; captures were checked above.
				checkMapAndGlobalStores(pass, al, fd)
			}
		}
	}
	return nil, nil
}

// ---- use after free ----

// stmtList is a block-like statement container: a BlockStmt, a case clause,
// or a comm clause body.
type stmtList struct {
	stmts []ast.Stmt
	index int // index of the statement on the path to the free call
}

// checkUseAfterFree finds free-function calls and flags later uses of the
// freed variable on the straight-line continuation of that call: the
// statements that follow it in its own block, and — when that block falls
// through rather than returning or branching — in each enclosing block.
// Sibling branches are never flagged, a reassignment re-arms the variable,
// and closure/defer bodies are left to the simdebug runtime check (their
// execution point is not statically ordered against the free).
func checkUseAfterFree(pass *analysis.Pass, al *allows, fd *ast.FuncDecl) {
	type siteKey struct {
		call *ast.CallExpr
		obj  *types.Var
	}
	var order []siteKey
	paths := map[siteKey][]stmtList{}

	collect := func(s ast.Stmt, path []stmtList) {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
				// A free inside a closure, defer, or goroutine is not
				// sequenced before the trailing statements.
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := calleeName(call)
			if name == "" || !freeFuncRe.MatchString(name) {
				return true
			}
			for _, arg := range call.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.TypesInfo.Uses[id].(*types.Var)
				if !ok || v.IsField() {
					continue
				}
				k := siteKey{call: call, obj: v}
				if _, seen := paths[k]; !seen {
					order = append(order, k)
				}
				// Deeper walks overwrite shallower ones, so the stored path
				// is the innermost statement chain containing the call.
				p := make([]stmtList, len(path))
				copy(p, path)
				paths[k] = p
			}
			return true
		})
	}
	var walk func(stmts []ast.Stmt, path []stmtList)
	walk = func(stmts []ast.Stmt, path []stmtList) {
		for i, s := range stmts {
			here := append(path, stmtList{stmts: stmts, index: i})
			collect(s, here)
			switch s := s.(type) {
			case *ast.BlockStmt:
				walk(s.List, here)
			case *ast.IfStmt:
				walk(s.Body.List, here)
				if b, ok := s.Else.(*ast.BlockStmt); ok {
					walk(b.List, here)
				} else if e, ok := s.Else.(*ast.IfStmt); ok {
					walk([]ast.Stmt{e}, here)
				}
			case *ast.ForStmt:
				walk(s.Body.List, here)
			case *ast.RangeStmt:
				walk(s.Body.List, here)
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body, here)
					}
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body, here)
					}
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						walk(cc.Body, here)
					}
				}
			case *ast.LabeledStmt:
				walk([]ast.Stmt{s.Stmt}, here)
			}
		}
	}
	walk(fd.Body.List, nil)

	for _, k := range order {
		scanAfterFree(pass, al, k.obj, k.call, paths[k])
	}
}

// scanAfterFree walks the straight-line continuation of one free call and
// reports the first use of the freed variable.
func scanAfterFree(pass *analysis.Pass, al *allows, obj *types.Var, call *ast.CallExpr, path []stmtList) {
	stop := false // reassignment, flow terminator, or a reported use
	checkStmt := func(s ast.Stmt) {
		ast.Inspect(s, func(n ast.Node) bool {
			if stop {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				// Captured uses are the capture check's concern.
				return false
			case *ast.AssignStmt:
				// RHS uses happen before the reassignment takes effect.
				for _, rhs := range n.Rhs {
					if id := firstUse(pass, rhs, obj); id != nil {
						al.report(pass, id.Pos(),
							"use of %q after %s released it to the pool", obj.Name(), calleeName(call))
						stop = true
						return false
					}
				}
				for _, lhs := range n.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
						stop = true // re-armed with a fresh value
						return false
					}
				}
				return true
			case *ast.Ident:
				if pass.TypesInfo.Uses[n] == obj {
					al.report(pass, n.Pos(),
						"use of %q after %s released it to the pool", obj.Name(), calleeName(call))
					stop = true
					return false
				}
			}
			return true
		})
	}
	for level := len(path) - 1; level >= 0 && !stop; level-- {
		bl := path[level]
		terminated := false
		for _, s := range bl.stmts[bl.index+1:] {
			if stop {
				return
			}
			checkStmt(s)
			if terminatesFlow(s) {
				terminated = true
				break
			}
		}
		if terminated {
			return // control never falls through to the enclosing block
		}
	}
}

// firstUse returns an identifier in e that refers to obj, or nil.
func firstUse(pass *analysis.Pass, e ast.Expr, obj *types.Var) *ast.Ident {
	var found *ast.Ident
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = id
		}
		return found == nil
	})
	return found
}

// terminatesFlow reports whether s unconditionally leaves the enclosing
// block (so statements after the block cannot observe the freed value).
func terminatesFlow(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// ---- escapes ----

// checkCaptures flags closures that capture pooled variables declared
// outside the closure: a captured pooled pointer both heap-allocates the
// closure and lets the pointer outlive its pool ownership window.
func checkCaptures(pass *analysis.Pass, al *allows, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, v := range capturedVars(pass, lit) {
			if isPooled(v.Type()) {
				al.report(pass, lit.Pos(),
					"closure captures pooled %q (%s); pass it through typed fields or a ScheduleArgAt argument instead",
					v.Name(), v.Type())
			}
		}
		return true
	})
}

// capturedVars returns the function-local variables referenced by lit but
// declared outside it (its free variables). Package-level variables are not
// captures.
func capturedVars(pass *analysis.Pass, lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal
		}
		if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == pass.Pkg.Scope() {
			return true // package-level or universe: not a capture
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// checkEscapes flags pooled pointers stored into fields of non-pooled
// structs, into maps, or into package-level variables.
func checkEscapes(pass *analysis.Pass, al *allows, fd *ast.FuncDecl) {
	checkMapAndGlobalStores(pass, al, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			rhs := pairedRhs(as, i)
			if rhs == nil || !pooledValue(pass, rhs) {
				continue
			}
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if selObj, ok := pass.TypesInfo.Selections[sel]; ok && selObj.Kind() == types.FieldVal {
				if !isPooled(selObj.Recv()) {
					al.report(pass, as.Pos(),
						"pooled pointer stored into field %s of non-pooled %s: ownership escapes the pool",
						sel.Sel.Name, selObj.Recv())
				}
			}
		}
		return true
	})
}

// checkMapAndGlobalStores flags pooled pointers stored into maps or
// package-level variables (checked even inside pool implementations: the
// free list itself is a typed chain, never a map or global).
func checkMapAndGlobalStores(pass *analysis.Pass, al *allows, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			rhs := pairedRhs(as, i)
			if rhs == nil || !pooledValue(pass, rhs) {
				continue
			}
			switch lhs := ast.Unparen(lhs).(type) {
			case *ast.IndexExpr:
				if tv, ok := pass.TypesInfo.Types[lhs.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						al.report(pass, as.Pos(),
							"pooled pointer stored into map: ownership escapes the pool")
					}
				}
			case *ast.Ident:
				if v, ok := pass.TypesInfo.Uses[lhs].(*types.Var); ok &&
					v.Parent() == pass.Pkg.Scope() {
					al.report(pass, as.Pos(),
						"pooled pointer stored into package-level variable %q: ownership escapes the pool", v.Name())
				}
			}
		}
		return true
	})
}

// pairedRhs returns the right-hand expression assigned to Lhs[i], or nil
// when the assignment is not 1:1 (multi-value calls are never pooled-typed
// stores of interest here).
func pairedRhs(as *ast.AssignStmt, i int) ast.Expr {
	if len(as.Lhs) == len(as.Rhs) {
		return as.Rhs[i]
	}
	return nil
}

// pooledValue reports whether e is a pooled-typed value (excluding nil).
func pooledValue(pass *analysis.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.IsNil() {
		return false
	}
	return isPooled(tv.Type)
}

// checkReturns flags pooled pointers returned by functions outside the pool
// implementation: callers must receive pooled objects only from the pool's
// own constructors.
func checkReturns(pass *analysis.Pass, al *allows, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literal bodies have their own return semantics
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if pooledValue(pass, res) {
				al.report(pass, ret.Pos(),
					"pooled pointer returned from %s: pooled objects may only be handed out by the pool implementation (new*/get*)",
					fd.Name.Name)
			}
		}
		return true
	})
}
