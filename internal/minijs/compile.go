package minijs

import (
	"fmt"
	"strings"
	"sync"

	"github.com/parcel-go/parcel/internal/bodyindex"
)

// This file is the compile phase of the "compile once, run many" pipeline.
// Parse hands the AST to the compiler, which resolves every identifier to a
// (hops, slot) index into flat []Value frames and turns every statement and
// expression into a Go closure. Running a program is then a chain of direct
// closure calls: no type switch per node, no operator string compares, no
// map[string]Value chains. Compilation is a pure function of the AST and
// runs exactly once per source string (Compile memoizes whole programs),
// after which a Program is immutable and safe to share across goroutines —
// the experiment runner's workers and the TCP proxy's crawlers execute the
// same compiled scripts concurrently on independent Interps.
//
// The compiled form must be *observationally identical* to the reference
// map-chain interpreter (kept in reference_test.go and enforced by
// FuzzMinijs and TestSlotResolvedMatchesRef), which pins down four points:
//
//   - Every compiled statement and expression charges one step on entry,
//     and loops charge one after each iteration, exactly where the
//     reference walk does, so op counts and the op at which the budget
//     fails are identical. A literal folded into its parent operator still
//     charges its own step, after the operand to its left.
//
//   - A scope is materialized exactly where the reference allocates an env
//     the program can observe: a function call's param scope, a block with
//     at least one top-level var declaration (fresh per loop iteration, so
//     per-iteration closure capture still works), and a for-init scope when
//     the init is a var declaration. (The reference also allocates an empty
//     env for assignment/expression inits; no name can ever resolve into
//     it, so it is not materialized here.)
//
//   - The reference decides visibility by runtime map membership: a var is
//     invisible until its declaration executes. Slots therefore start as an
//     unset sentinel, and each identifier carries the ordered list of
//     *candidate* bindings in enclosing scopes; at runtime the innermost
//     initialized candidate wins, falling back to the dynamic global map
//     (builtins, top-level vars, implicit globals) by name.
//
//   - Frames are recycled through free lists (see interp.go), which is only
//     sound for scopes no closure can capture. Evaluating a function
//     literal captures the whole live chain, so compilation marks every
//     enclosing scope as escaping; escaping frames are heap-allocated and
//     never pooled.

// execFn runs one compiled statement (or block) in frame f. A return
// statement reports errReturnSignal with its value in Interp.ret.
type execFn func(in *Interp, f *frame) error

// evalFn evaluates one compiled expression in frame f.
type evalFn func(in *Interp, f *frame) (Value, error)

// funcCode is a compiled function literal, shared by every closure made
// from it.
type funcCode struct {
	scope *scopeInfo
	body  execFn
}

// scopeInfo is the compiled description of one materialized lexical scope.
type scopeInfo struct {
	// names maps slot index -> variable name (params first for function
	// scopes, then top-level var declarations; duplicates collapse onto one
	// slot, like duplicate map keys did).
	names []string
	// paramSlots maps param index -> slot for function scopes, so duplicate
	// parameter names write the same slot in order (last argument wins,
	// matching map insertion).
	paramSlots []int
	// escapes marks scopes a function literal is created under: their
	// frames may outlive the scope's execution and are never recycled.
	escapes bool
}

func (sc *scopeInfo) slotOf(name string) int {
	for i, n := range sc.names {
		if n == name {
			return i
		}
	}
	return -1
}

// slotRef is one candidate binding for an identifier: slot `slot` of the
// frame `hops` levels up the chain from the identifier's position.
type slotRef struct {
	hops int
	slot int
}

// compileProgram compiles the AST. It runs inside Parse, so every Program
// the package hands out is compiled before it can be shared.
func compileProgram(p *Program) {
	c := compiler{}
	p.run = c.block(p.Stmts)
}

// compiler tracks the compile-time chain of materialized scopes; the global
// scope is not represented (it stays a dynamic map at runtime).
type compiler struct {
	stack []*scopeInfo
}

func (c *compiler) enter(sc *scopeInfo) { c.stack = append(c.stack, sc) }
func (c *compiler) exit()               { c.stack = c.stack[:len(c.stack)-1] }

// candidates collects every enclosing scope declaring name, innermost
// first. The runtime walks them in order and takes the first whose slot has
// been initialized, which reproduces the reference interpreter's
// map-membership walk exactly.
func (c *compiler) candidates(name string) []slotRef {
	var cands []slotRef
	for i := len(c.stack) - 1; i >= 0; i-- {
		if slot := c.stack[i].slotOf(name); slot >= 0 {
			cands = append(cands, slotRef{hops: len(c.stack) - 1 - i, slot: slot})
		}
	}
	return cands
}

// blockInfo mirrors blockScope in the reference interpreter: a block gets a
// scope (and therefore a frame) iff it declares at least one variable at
// its top level.
func blockInfo(stmts []Stmt) *scopeInfo {
	var sc *scopeInfo
	for _, s := range stmts {
		if v, ok := s.(*VarStmt); ok {
			if sc == nil {
				sc = &scopeInfo{}
			}
			if sc.slotOf(v.Name) < 0 {
				sc.names = append(sc.names, v.Name)
			}
		}
	}
	return sc
}

// funcScope lays out a function's param scope: parameters first (duplicates
// collapsing onto the earlier slot, later writes winning), then the body's
// top-level var declarations, which the reference wrote into the same env.
func funcScope(params []string, body []Stmt) *scopeInfo {
	sc := &scopeInfo{paramSlots: make([]int, len(params))}
	for i, p := range params {
		if slot := sc.slotOf(p); slot >= 0 {
			sc.paramSlots[i] = slot
			continue
		}
		sc.paramSlots[i] = len(sc.names)
		sc.names = append(sc.names, p)
	}
	for _, s := range body {
		if v, ok := s.(*VarStmt); ok && sc.slotOf(v.Name) < 0 {
			sc.names = append(sc.names, v.Name)
		}
	}
	return sc
}

func execNothing(*Interp, *frame) error { return nil }

// block compiles statements run in order in the current frame.
func (c *compiler) block(ss []Stmt) execFn {
	fns := make([]execFn, len(ss))
	for i, s := range ss {
		fns[i] = c.stmt(s)
	}
	switch len(fns) {
	case 0:
		return execNothing
	case 1:
		return fns[0]
	}
	return func(in *Interp, f *frame) error {
		for _, s := range fns {
			if err := s(in, f); err != nil {
				return err
			}
		}
		return nil
	}
}

// scoped compiles a block that runs in a fresh frame when it declares
// variables — fresh per entry, so loop iterations get independent bindings
// — and directly in the enclosing frame otherwise.
func (c *compiler) scoped(ss []Stmt) execFn {
	sc := blockInfo(ss)
	if sc == nil {
		return c.block(ss)
	}
	c.enter(sc)
	body := c.block(ss)
	c.exit()
	return func(in *Interp, f *frame) error {
		nf := in.newFrame(sc, f)
		err := body(in, nf)
		in.freeFrame(nf, sc)
		return err
	}
}

func (c *compiler) stmt(s Stmt) execFn {
	switch s := s.(type) {
	case *VarStmt:
		return c.varStmt(s)
	case *AssignStmt:
		return c.assign(s)
	case *ExprStmt:
		x := c.expr(s.X)
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			_, err := x(in, f)
			return err
		}
	case *IfStmt:
		cond := c.expr(s.Cond)
		then, els := c.scoped(s.Then), c.scoped(s.Else)
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := cond(in, f)
			if err != nil {
				return err
			}
			if v.Truthy() {
				return then(in, f)
			}
			return els(in, f)
		}
	case *WhileStmt:
		cond := c.expr(s.Cond)
		body := c.scoped(s.Body)
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			for {
				v, err := cond(in, f)
				if err != nil {
					return err
				}
				if !v.Truthy() {
					return nil
				}
				if err := body(in, f); err != nil {
					return err
				}
				if err := in.step(); err != nil {
					return err
				}
			}
		}
	case *ForStmt:
		return c.forStmt(s)
	case *ReturnStmt:
		x := c.exprOrNull(s.X)
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := x(in, f)
			if err != nil {
				return err
			}
			in.ret = v
			return errReturnSignal
		}
	}
	panic(fmt.Sprintf("minijs: cannot compile statement %T", s)) // Parse makes no other
}

func (c *compiler) varStmt(s *VarStmt) execFn {
	init := c.exprOrNull(s.Init)
	name, slot := s.Name, -1
	if n := len(c.stack); n > 0 {
		slot = c.stack[n-1].slotOf(name)
	}
	return func(in *Interp, f *frame) error {
		if err := in.step(); err != nil {
			return err
		}
		v, err := init(in, f)
		if err != nil {
			return err
		}
		if slot < 0 {
			in.setGlobal(name, v)
		} else {
			f.slots[slot] = v
		}
		return nil
	}
}

// assign writes through the same candidate walk as an identifier read,
// falling back to an implicit global (sloppy-mode JS) when no initialized
// binding exists.
func (c *compiler) assign(s *AssignStmt) execFn {
	x := c.expr(s.X)
	name, cands := s.Name, c.candidates(s.Name)
	switch {
	case len(cands) == 0:
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := x(in, f)
			if err != nil {
				return err
			}
			in.setGlobal(name, v)
			return nil
		}
	case len(cands) == 1 && cands[0].hops == 0:
		slot := cands[0].slot
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			v, err := x(in, f)
			if err != nil {
				return err
			}
			if f.slots[slot].obj != &unsetTag {
				f.slots[slot] = v
			} else {
				in.setGlobal(name, v)
			}
			return nil
		}
	}
	return func(in *Interp, f *frame) error {
		if err := in.step(); err != nil {
			return err
		}
		v, err := x(in, f)
		if err != nil {
			return err
		}
		for _, c := range cands {
			fr := f
			for h := c.hops; h > 0; h-- {
				fr = fr.parent
			}
			if fr.slots[c.slot].obj != &unsetTag {
				fr.slots[c.slot] = v
				return nil
			}
		}
		in.setGlobal(name, v)
		return nil
	}
}

func (c *compiler) forStmt(s *ForStmt) execFn {
	// The induction variable of `for (var ...)` gets its own frame; its
	// lifetime spans every iteration, so it is released only when the loop
	// exits.
	var initScope *scopeInfo
	if v, ok := s.Init.(*VarStmt); ok {
		initScope = &scopeInfo{names: []string{v.Name}}
		c.enter(initScope)
	}
	init, post := execNothing, execNothing
	if s.Init != nil {
		init = c.stmt(s.Init)
	}
	cond := func(*Interp, *frame) (Value, error) { return Bool(true), nil }
	if s.Cond != nil {
		cond = c.expr(s.Cond)
	}
	if s.Post != nil {
		post = c.stmt(s.Post)
	}
	body := c.scoped(s.Body)
	if initScope != nil {
		c.exit()
	}
	loop := func(in *Interp, f *frame) error {
		if err := init(in, f); err != nil {
			return err
		}
		for {
			v, err := cond(in, f)
			if err != nil {
				return err
			}
			if !v.Truthy() {
				return nil
			}
			if err := body(in, f); err != nil {
				return err
			}
			if err := post(in, f); err != nil {
				return err
			}
			if err := in.step(); err != nil {
				return err
			}
		}
	}
	if initScope == nil {
		return func(in *Interp, f *frame) error {
			if err := in.step(); err != nil {
				return err
			}
			return loop(in, f)
		}
	}
	return func(in *Interp, f *frame) error {
		if err := in.step(); err != nil {
			return err
		}
		nf := in.newFrame(initScope, f)
		err := loop(in, nf)
		in.freeFrame(nf, initScope)
		return err
	}
}

func (c *compiler) expr(x Expr) evalFn {
	switch x := x.(type) {
	case *Lit:
		v := x.Val
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			return v, nil
		}
	case *Ident:
		return c.ident(x.Name)
	case *Member:
		base, name := c.expr(x.X), x.Name
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			b, err := base(in, f)
			if err != nil {
				return Null(), err
			}
			if b.kind() != kindNamespace {
				return Null(), fmt.Errorf("minijs: member access %q on non-object", name)
			}
			v, ok := b.obj.space[name]
			if !ok {
				return Null(), fmt.Errorf("minijs: unknown member %q", name)
			}
			return v, nil
		}
	case *FuncLit:
		// Evaluating the literal captures the live chain: every enclosing
		// frame may now outlive its scope.
		for _, sc := range c.stack {
			sc.escapes = true
		}
		code := &funcCode{scope: funcScope(x.Params, x.Body)}
		c.enter(code.scope)
		code.body = c.block(x.Body)
		c.exit()
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			return Value{obj: &object{kind: kindClosure, closure: Closure{code: code, frame: f}}}, nil
		}
	case *Unary:
		return c.unary(x)
	case *Binary:
		return c.binary(x)
	case *Call:
		return c.call(x)
	}
	panic(fmt.Sprintf("minijs: cannot compile expression %T", x)) // Parse makes no other
}

// exprOrNull compiles an optional expression: a missing one yields null
// without a step, as the reference walker never evaluates it.
func (c *compiler) exprOrNull(x Expr) evalFn {
	if x == nil {
		return func(*Interp, *frame) (Value, error) { return Null(), nil }
	}
	return c.expr(x)
}

// ident compiles an identifier read: the innermost initialized candidate
// binding wins (a var whose declaration has not executed yet is invisible),
// with the dynamic global map as the final fallback.
func (c *compiler) ident(name string) evalFn {
	cands := c.candidates(name)
	switch {
	case len(cands) == 0:
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			return in.global(name)
		}
	case len(cands) == 1 && cands[0].hops == 0:
		slot := cands[0].slot
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			if v := f.slots[slot]; v.obj != &unsetTag {
				return v, nil
			}
			return in.global(name)
		}
	}
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Null(), err
		}
		for _, c := range cands {
			fr := f
			for h := c.hops; h > 0; h-- {
				fr = fr.parent
			}
			if v := fr.slots[c.slot]; v.obj != &unsetTag {
				return v, nil
			}
		}
		return in.global(name)
	}
}

func (c *compiler) unary(x *Unary) evalFn {
	operand, not := c.expr(x.X), x.Op == "!" // the parser makes only ! and -
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Null(), err
		}
		v, err := operand(in, f)
		if err != nil {
			return Null(), err
		}
		if not {
			return Bool(!v.Truthy()), nil
		}
		return Number(-v.Num()), nil
	}
}

// binOp is a strict (both operands evaluated) binary operator; && and || are
// compiled on their own.
type binOp uint8

const (
	opAdd binOp = iota + 1
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opGt
	opLe
	opGe
)

var binOps = map[string]binOp{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opEq, "!=": opNe, "<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
}

func (c *compiler) binary(x *Binary) evalFn {
	l := c.expr(x.L)
	if x.Op == "&&" || x.Op == "||" {
		r, and := c.expr(x.R), x.Op == "&&"
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			lv, err := l(in, f)
			if err != nil {
				return Null(), err
			}
			if lv.Truthy() != and {
				return lv, nil
			}
			return r(in, f)
		}
	}
	op, ok := binOps[x.Op]
	if !ok {
		panic("minijs: cannot compile operator " + x.Op) // the parser makes no other
	}
	if lit, ok := x.R.(*Lit); ok && lit.Val.obj == &numberTag {
		// Fold a number literal into its operator: it is still charged its
		// own step, after the left operand, as its own evaluation would be.
		rv, rn := lit.Val, lit.Val.n
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Null(), err
			}
			lv, err := l(in, f)
			if err != nil {
				return Null(), err
			}
			if err := in.step(); err != nil {
				return Null(), err
			}
			if lv.obj == &numberTag {
				return numeric(op, lv.n, rn), nil
			}
			return applyBinary(op, lv, rv), nil
		}
	}
	r := c.expr(x.R)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Null(), err
		}
		lv, err := l(in, f)
		if err != nil {
			return Null(), err
		}
		rv, err := r(in, f)
		if err != nil {
			return Null(), err
		}
		if lv.obj == &numberTag && rv.obj == &numberTag {
			return numeric(op, lv.n, rv.n), nil
		}
		return applyBinary(op, lv, rv), nil
	}
}

// numeric applies op to two numbers: the fast path of applyBinary, taking
// the operands as floats so they stay in registers.
func numeric(op binOp, l, r float64) Value {
	switch op {
	case opAdd:
		return Value{obj: &numberTag, n: l + r}
	case opSub:
		return Value{obj: &numberTag, n: l - r}
	case opMul:
		return Value{obj: &numberTag, n: l * r}
	case opDiv:
		return Value{obj: &numberTag, n: l / r}
	case opMod:
		// Integer remainder; a divisor that truncates to 0 (0.5 as well as
		// 0) yields 0 rather than dividing by zero.
		ri := int64(r)
		if ri == 0 {
			return Value{obj: &numberTag}
		}
		return Value{obj: &numberTag, n: float64(int64(l) % ri)}
	case opEq:
		return Bool(l == r)
	case opNe:
		return Bool(l != r)
	case opLt:
		return Bool(l < r)
	case opGt:
		return Bool(l > r)
	case opLe:
		return Bool(!(l > r)) // unordered (NaN) operands compare equal
	default: // opGe
		return Bool(!(l < r))
	}
}

// applyBinary applies a strict operator to any two values: + concatenates
// when either side is a string, == and != compare kinds too, and the
// orderings compare two strings lexically; everything else is arithmetic
// on Num.
func applyBinary(op binOp, l, r Value) Value {
	switch op {
	case opAdd:
		if l.obj == &stringTag || r.obj == &stringTag {
			return String(l.Str() + r.Str())
		}
	case opEq:
		return Bool(l.Equals(r))
	case opNe:
		return Bool(!l.Equals(r))
	case opLt, opGt, opLe, opGe:
		if l.obj == &stringTag && r.obj == &stringTag {
			c := strings.Compare(l.s, r.s)
			return numeric(op, float64(c), 0)
		}
	}
	return numeric(op, l.Num(), r.Num())
}

func (c *compiler) call(x *Call) evalFn {
	fn := c.expr(x.Fn)
	args := make([]evalFn, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.expr(a)
	}
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Null(), err
		}
		fnv, err := fn(in, f)
		if err != nil {
			return Null(), err
		}
		argv := in.getArgs(len(args))
		for i, a := range args {
			if argv[i], err = a(in, f); err != nil {
				in.putArgs(argv)
				return Null(), err
			}
		}
		var v Value
		switch fnv.kind() {
		case kindNative:
			v, err = fnv.obj.nat(argv)
		case kindClosure:
			v, err = in.CallClosure(&fnv.obj.closure, argv...)
		default:
			in.putArgs(argv)
			return Null(), fmt.Errorf("minijs: call of non-function")
		}
		in.putArgs(argv)
		return v, err
	}
}

// maxProgCache bounds the program cache. When full it is cleared outright
// (an epoch clear): compiled programs are pure functions of their source,
// so eviction can only cost a recompile, never change a result.
const maxProgCache = 4096

// progCache is the program memo: m, keyed by source, is the source of
// truth; idx, keyed by body identity, answers a repeat CompileBytes of one
// body object without reading it, and is cleared with m.
var progCache = newProgramMemo()

type programMemo struct {
	mu  sync.RWMutex
	m   map[string]*Program
	idx *bodyindex.Index[*Program]
}

func newProgramMemo() *programMemo {
	c := &programMemo{m: make(map[string]*Program, 64)}
	c.idx = bodyindex.New[*Program](&c.mu)
	return c
}

// Compile parses and compiles src, memoizing the result by source string.
// Compiled programs are immutable; concurrent callers — the experiment
// runner's workers, the proxy and client engines of one page load, every
// scheme loading the same webgen page — share one *Program: when two
// goroutines compile one fresh source at once, the first to store wins and
// both return its Program, so memos keyed by program see it once. Parse
// failures are not cached (they are rare and deterministic).
func Compile(src string) (*Program, error) {
	progCache.mu.RLock()
	p := progCache.m[src]
	progCache.mu.RUnlock()
	if p != nil {
		return p, nil
	}
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	progCache.mu.Lock()
	if won := progCache.m[src]; won != nil {
		p = won
	} else {
		if len(progCache.m) >= maxProgCache {
			progCache.m = make(map[string]*Program, 64)
			progCache.idx.Clear()
		}
		progCache.m[src] = p
	}
	progCache.mu.Unlock()
	return p, nil
}

// CompileBytes is Compile for a script body held as bytes, and returns the
// same *Program Compile does for that source. src must not be modified once
// passed (bodies are immutable by contract on both arms): a repeat call with
// the same slice is answered by its identity — start address and length —
// without reading the bytes, so it costs the same for any body size and does
// not allocate. A new slice with known content costs one hash and compare; a
// string conversion is paid only on the first compile anywhere in the
// process. Under -tags simdebug an identity hit re-checks the bytes and
// panics if they changed.
func CompileBytes(src []byte) (*Program, error) {
	progCache.mu.RLock()
	p, indexed := progCache.idx.Get(src)
	if !indexed {
		p = progCache.m[string(src)]
	} else if bodyindex.Check && progCache.m[string(src)] != p {
		progCache.mu.RUnlock()
		panic("minijs: script body modified after CompileBytes memoised it")
	}
	epoch := progCache.idx.Epoch()
	progCache.mu.RUnlock()
	if indexed {
		return p, nil
	}
	if p == nil {
		var err error
		if p, err = Compile(string(src)); err != nil {
			return nil, err
		}
	}
	progCache.mu.Lock()
	progCache.idx.Put(epoch, src, p)
	progCache.mu.Unlock()
	return p, nil
}
