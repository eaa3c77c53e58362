package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// LockOrder builds a static lock graph over the concurrency-bearing packages
// (the proxy's registry/session mutexes, objcache's segment locks, the client
// and crawler locks that guard the hpack tables and JS engine) and reports
// three hazard classes:
//
//   - ordering cycles: lock A is acquired while holding B in one function
//     and B while holding A in another — the classic ABBA deadlock;
//   - self-deadlock: a mutex acquired while an acquisition of the same lock
//     identity is still pending in the same function, directly or through a
//     one-level call to an in-package function that re-acquires it;
//   - blocking-under-lock: time.Sleep, framed-wire writes, raw connection
//     I/O, channel operations, or origin-fetch callbacks made while a mutex
//     is held, which turns a fast critical section into one that stalls
//     every peer contending for the lock.
//
// Lock identity is (receiver type, field) — "session.mu", "segment.mu" —
// so the graph is over lock roles, not instances. FrameWriter.mu is the
// designed exception: it exists to serialize writes, so holding it across
// the write is the point, and it is allowlisted for the blocking check.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "report lock-ordering cycles, self-deadlocks, and blocking calls " +
		"made under proxy/objcache mutexes",
	Run: runLockOrder,
}

// lockPackages are the real-concurrency packages whose mutexes form the
// graph. The simulation arm is single-goroutine-per-virtual-clock and has
// nothing to order.
var lockPackages = map[string]bool{
	"internal/parcelnet": true,
	"internal/objcache":  true,

	// analysistest fixtures
	"lockorder_bad":   true,
	"lockorder_clean": true,
}

// serializationLocks are locks whose whole purpose is to be held across the
// blocking operation they serialize; the blocking-under-lock check skips
// them.
var serializationLocks = map[string]bool{
	"FrameWriter.mu": true,
}

// lockOp is one mutex acquisition or release site.
type lockOp struct {
	id    string // lock identity: "type.field" or a bare var name
	read  bool   // RLock/RUnlock
	write bool   // Lock/Unlock (write side)
	pos   token.Pos
}

// lockEdge records "from held while acquiring to" with the site it was
// observed at.
type lockEdge struct {
	pos token.Pos
	fn  string
}

func runLockOrder(pass *analysis.Pass) (any, error) {
	return runLockOrderImpl(pass, collectAllows(pass, "lockorder"))
}

// runLockOrderImpl is the directive-injectable body: staleallow shadow-runs
// it with a shared, usage-tracked allow set.
func runLockOrderImpl(pass *analysis.Pass, al *allows) (any, error) {
	if !pkgMatch(lockPackages, pass.Pkg.Path()) {
		return nil, nil
	}

	// Pass 1: per-function summaries — every lock identity the function
	// acquires anywhere in its body — for the one-level call propagation.
	fns := map[*types.Func]*lockFnInfo{}
	var order []*types.Func
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &lockFnInfo{decl: fd, acquires: map[string]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if op, ok := mutexOp(pass, call); ok && (op == "Lock" || op == "RLock") {
					if id := lockIdentity(pass, call); id != "" {
						info.acquires[id] = true
					}
				}
				return true
			})
			fns[fn] = info
			order = append(order, fn)
		}
	}

	// Pass 2: walk each function in source order tracking the held stack,
	// collecting ordering edges and reporting self-deadlocks and
	// blocking-under-lock on the way.
	edges := map[string]map[string]lockEdge{}
	addEdge := func(from, to string, pos token.Pos, fn string) {
		if edges[from] == nil {
			edges[from] = map[string]lockEdge{}
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = lockEdge{pos: pos, fn: fn}
		}
	}

	for _, fn := range order {
		info := fns[fn]
		w := &lockWalker{pass: pass, al: al, fns: fns, addEdge: addEdge, fnName: info.decl.Name.Name}
		w.stmts(info.decl.Body.List, nil)
	}

	reportLockCycles(pass, al, edges)
	return nil, nil
}

// lockWalker tracks the held-lock stack through a function body with real
// branch structure: exclusive if/else and switch arms are walked with their
// own copies of the stack and merged by intersection, so a lock taken in
// both arms of an if/else is one acquisition, not a self-deadlock.
type lockWalker struct {
	pass    *analysis.Pass
	al      *allows
	fns     map[*types.Func]*lockFnInfo
	addEdge func(from, to string, pos token.Pos, fn string)
	fnName  string
}

func cloneHeld(held []lockOp) []lockOp {
	return append([]lockOp(nil), held...)
}

// intersectHeld keeps the locks held on both merged paths, in a's order.
func intersectHeld(a, b []lockOp) []lockOp {
	var out []lockOp
	for _, h := range a {
		for _, h2 := range b {
			if h2.id == h.id {
				out = append(out, h)
				break
			}
		}
	}
	return out
}

// terminated reports whether the statement list ends by leaving the
// function or loop, so its held stack must not flow into the merge.
func terminated(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
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

func (w *lockWalker) stmts(list []ast.Stmt, held []lockOp) []lockOp {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held []lockOp) []lockOp {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Cond, held)
		thenHeld := w.stmts(s.Body.List, cloneHeld(held))
		elseHeld := held
		if s.Else != nil {
			elseHeld = w.stmt(s.Else, cloneHeld(held))
		}
		switch {
		case terminated(s.Body.List) && s.Else == nil:
			return elseHeld
		case terminated(s.Body.List):
			return elseHeld
		case s.Else != nil && elseTerminated(s.Else):
			return thenHeld
		default:
			return intersectHeld(thenHeld, elseHeld)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			held = w.expr(s.Cond, held)
		}
		// The body is assumed lock-balanced (an unbalanced body is still
		// checked internally); the post-loop stack is the entry stack.
		w.stmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		w.stmts(s.Body.List, cloneHeld(held))
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branchArms(s, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held to the end of the function,
		// which is exactly how an unmatched acquisition already reads — so
		// skip the call, and don't let a deferred re-lock or blocking call
		// poison the stack either.
		return held
	case *ast.GoStmt:
		// The spawned call runs on its own goroutine with no inherited
		// stack.
		return held
	default:
		return w.expr(s, held)
	}
}

// elseTerminated reports whether an else arm (block or chained if) ends by
// leaving the function.
func elseTerminated(s ast.Stmt) bool {
	if b, ok := s.(*ast.BlockStmt); ok {
		return terminated(b.List)
	}
	return false
}

// branchArms walks switch/type-switch/select arms with independent stacks;
// the post-statement stack is the entry stack (arms are assumed balanced,
// and are still checked internally).
func (w *lockWalker) branchArms(s ast.Stmt, held []lockOp) []lockOp {
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			held = w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		held = w.expr(s.Assign, held)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, cloneHeld(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			armHeld := cloneHeld(held)
			if cc.Comm != nil {
				armHeld = w.stmt(cc.Comm, armHeld)
			}
			w.stmts(cc.Body, armHeld)
		}
	}
	return held
}

// expr scans one non-branching statement or expression in evaluation order
// for mutex operations, blocking channel operations, and calls.
func (w *lockWalker) expr(n ast.Node, held []lockOp) []lockOp {
	if n == nil {
		return held
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			// Closures run later on their own goroutine or schedule; their
			// bodies get no inherited held stack, and scanning them with the
			// outer stack would fabricate edges.
			return false
		case *ast.SendStmt:
			reportBlocking(w.pass, w.al, held, m.Pos(), "channel send")
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				reportBlocking(w.pass, w.al, held, m.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			op, ok := mutexOp(w.pass, m)
			if !ok {
				lockCheckCall(w.pass, w.al, w.fns, held, m, w.addEdge, w.fnName)
				return true
			}
			id := lockIdentity(w.pass, m)
			if id == "" {
				return true
			}
			switch op {
			case "Lock", "RLock":
				for _, h := range held {
					if h.id == id && (h.write || op == "Lock") {
						w.al.report(w.pass, m.Pos(),
							"lock %s acquired while already held (self-deadlock; prior acquisition at %s)",
							id, w.pass.Fset.Position(h.pos))
					} else if h.id != id {
						w.addEdge(h.id, id, m.Pos(), w.fnName)
					}
				}
				held = append(held, lockOp{id: id, read: op == "RLock", write: op == "Lock", pos: m.Pos()})
			case "Unlock", "RUnlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].id == id {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
		}
		return true
	})
	return held
}

// lockFnInfo is one declared function's lock summary: every identity it
// acquires anywhere in its body.
type lockFnInfo struct {
	decl     *ast.FuncDecl
	acquires map[string]bool
}

// lockCheckCall handles a non-mutex call made with locks held: blocking-call
// hazards, and one-level propagation of in-package callees' lock summaries
// (self-deadlock if the callee re-acquires a held identity, ordering edges
// otherwise).
func lockCheckCall(pass *analysis.Pass, al *allows, fns map[*types.Func]*lockFnInfo, held []lockOp, call *ast.CallExpr, addEdge func(string, string, token.Pos, string), fnName string) {
	if len(held) == 0 {
		return
	}
	if what, ok := blockingCall(pass, call); ok {
		reportBlocking(pass, al, held, call.Pos(), what)
		return
	}
	callee := calleeFunc(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	info, ok := fns[callee]
	if !ok {
		return
	}
	var acquired []string
	for id := range info.acquires {
		acquired = append(acquired, id)
	}
	sort.Strings(acquired)
	for _, h := range held {
		for _, id := range acquired {
			if id == h.id {
				al.report(pass, call.Pos(),
					"call to %s while holding lock %s, which %s re-acquires (self-deadlock)",
					callee.Name(), h.id, callee.Name())
			} else {
				addEdge(h.id, id, call.Pos(), fnName)
			}
		}
	}
}

// blockingCall classifies calls that stall the calling goroutine for an
// unbounded or network-scale time: sleeps, framed-wire writes, raw
// connection I/O, and origin-fetch callbacks (func-typed values named
// fetch*, the injected-dependency convention throughout the proxy).
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	// Dynamic calls through fetch-named func values.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if isFetchName(fun.Name) && dynamicFuncValue(pass, fun) {
			return "origin fetch " + fun.Name, true
		}
	case *ast.SelectorExpr:
		if isFetchName(fun.Sel.Name) && dynamicFuncValue(pass, fun.Sel) {
			return "origin fetch " + fun.Sel.Name, true
		}
	}
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && name == "Sleep" {
		return "time.Sleep", true
	}
	recv := recvTypeName(fn)
	switch {
	case recv == "FrameWriter" && (name == "Write" || name == "WriteJSON" || name == "WriteWindowUpdate"):
		return "FrameWriter." + name, true
	case recv == "" && (name == "WriteFrame" || name == "writeBatch") && fn.Pkg() != nil && fn.Pkg() == pass.Pkg:
		return name, true
	case recv == "Conn" && fn.Pkg() != nil && fn.Pkg().Path() == "net" && (name == "Read" || name == "Write"):
		return "net.Conn." + name, true
	}
	return "", false
}

// isFetchName matches the injected origin-fetch convention: fetch, Fetch,
// fetchDirect, FetchValidatedCtx, ...
func isFetchName(name string) bool {
	return strings.HasPrefix(name, "fetch") || strings.HasPrefix(name, "Fetch")
}

// dynamicFuncValue reports whether id resolves to a func-typed variable or
// field (not a declared function) — the injected-callback shape.
func dynamicFuncValue(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	_, isSig := v.Type().Underlying().(*types.Signature)
	return isSig
}

func reportBlocking(pass *analysis.Pass, al *allows, held []lockOp, pos token.Pos, what string) {
	for _, h := range held {
		if serializationLocks[h.id] {
			continue
		}
		al.report(pass, pos,
			"blocking %s while holding lock %s (acquired at %s): release the lock before stalling",
			what, h.id, pass.Fset.Position(h.pos))
	}
}

// mutexOp recognizes sync.Mutex / sync.RWMutex method calls.
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	switch recvTypeName(fn) {
	case "Mutex", "RWMutex":
	default:
		return "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return fn.Name(), true
	}
	return "", false
}

// recvTypeName returns the callee's receiver type name, "" for plain
// functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// lockIdentity names the lock role a mutex call operates on: "type.field"
// for a struct-owned mutex (whatever the instance), the bare variable name
// for package-level or local mutexes.
func lockIdentity(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch base := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// x.mu.Lock(): identity is (type of x).mu.
		if tn := exprTypeName(pass, base.X); tn != "" {
			return tn + "." + base.Sel.Name
		}
		return base.Sel.Name
	case *ast.Ident:
		// mu.Lock() on a bare variable, or t.Lock() on an embedded mutex.
		if tn := exprTypeName(pass, base); tn != "" {
			return tn + ".Mutex"
		}
		return base.Name
	case *ast.IndexExpr:
		// locks[i].Lock() on a slice of mutexes: identity is the element
		// type's.
		if tn := exprTypeName(pass, base); tn != "" {
			return tn + ".Mutex"
		}
	}
	return ""
}

// exprTypeName resolves e's type to a named struct's name (behind
// pointers), or "" when e is not struct-typed — which makes bare mutex
// variables fall back to their variable name.
func exprTypeName(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return ""
	}
	return named.Obj().Name()
}

// reportLockCycles reports every edge that participates in an ordering
// cycle: A-before-B here while B-before-A holds elsewhere.
func reportLockCycles(pass *analysis.Pass, al *allows, edges map[string]map[string]lockEdge) {
	reach := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for next := range edges[n] {
				if next == to {
					return true
				}
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	var froms []string
	for from := range edges {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	for _, from := range froms {
		var tos []string
		for to := range edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			e := edges[from][to]
			if reach(to, from) {
				back := describeBackPath(edges, to, from)
				al.report(pass, e.pos,
					"lock ordering cycle: %s acquired before %s in %s, but %s is acquired before %s elsewhere%s",
					from, to, e.fn, to, from, back)
			}
		}
	}
}

// describeBackPath names one witness site of the reverse ordering for the
// cycle report.
func describeBackPath(edges map[string]map[string]lockEdge, from, to string) string {
	if e, ok := edges[from][to]; ok {
		return fmt.Sprintf(" (in %s)", e.fn)
	}
	return ""
}
