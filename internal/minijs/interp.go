package minijs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Value is a runtime value: null, bool, number, string, closure, native
// function, or namespace.
type Value struct {
	kind  valueKind
	b     bool
	n     float64
	s     string
	fn    *Closure
	nat   Native
	space map[string]Value
}

type valueKind int

const (
	kindNull valueKind = iota
	kindBool
	kindNumber
	kindString
	kindClosure
	kindNative
	kindNamespace
	// kindUnset marks a declared-but-not-yet-initialized frame slot. It
	// never escapes the interpreter: lookups and assignments skip unset
	// slots, reproducing the visibility rules of the runtime map-membership
	// walk this representation replaced.
	kindUnset
)

// Null returns the null value.
func Null() Value { return Value{} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{kind: kindBool, b: b} }

// Number wraps a float64.
func Number(n float64) Value { return Value{kind: kindNumber, n: n} }

// String wraps a string.
func String(s string) Value { return Value{kind: kindString, s: s} }

// NativeValue wraps a host function.
func NativeValue(f Native) Value { return Value{kind: kindNative, nat: f} }

// Namespace wraps a map of named host functions (e.g. the document object).
func Namespace(m map[string]Value) Value { return Value{kind: kindNamespace, space: m} }

// IsScalar reports whether v is null, bool, number or string — a value that
// carries no reference to any interpreter instance and can therefore be
// transplanted between interpreters (the exec-outcome cache relies on this).
func (v Value) IsScalar() bool { return v.kind <= kindString }

// SameKind reports whether v and o hold the same kind of value.
func (v Value) SameKind(o Value) bool { return v.kind == o.kind }

// Truthy follows JavaScript-like coercion.
func (v Value) Truthy() bool {
	switch v.kind {
	case kindNull:
		return false
	case kindBool:
		return v.b
	case kindNumber:
		return v.n != 0
	case kindString:
		return v.s != ""
	default:
		return true
	}
}

// Num returns the numeric value (0 for non-numbers).
func (v Value) Num() float64 {
	if v.kind == kindNumber {
		return v.n
	}
	return 0
}

// Str renders the value as a string, the way string concatenation sees it.
func (v Value) Str() string {
	switch v.kind {
	case kindNull:
		return "null"
	case kindBool:
		return strconv.FormatBool(v.b)
	case kindNumber:
		if v.n == float64(int64(v.n)) {
			return strconv.FormatInt(int64(v.n), 10)
		}
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case kindString:
		return v.s
	case kindClosure:
		return "[function]"
	case kindNative:
		return "[native]"
	default:
		return "[object]"
	}
}

// Closure returns the closure value, or nil.
func (v Value) Closure() *Closure {
	if v.kind == kindClosure {
		return v.fn
	}
	return nil
}

// Equals implements the == operator.
func (v Value) Equals(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case kindNull:
		return true
	case kindBool:
		return v.b == o.b
	case kindNumber:
		return v.n == o.n
	case kindString:
		return v.s == o.s
	default:
		return false // reference equality unsupported; scripts don't need it
	}
}

// Native is a host-provided builtin.
type Native func(args []Value) (Value, error)

// Closure is a user function with its captured environment: the compiled
// scope layout of its body plus the frame chain live at creation.
type Closure struct {
	Params []string
	Body   []Stmt
	scope  *scopeInfo
	frame  *frame
}

// frame is one materialized lexical scope: a flat slot array laid out at
// compile time. parent links toward the global scope (nil past the
// outermost frame); the Interp's globals map is the implicit chain root.
type frame struct {
	slots  []Value
	parent *frame
	pooled bool // on a free list; double-release check under -tags simdebug
}

// maxPooledSlots caps the frame sizes kept on free lists. Generated pages
// declare a handful of variables per scope, so every hot frame is pooled;
// pathological fuzz inputs with huge scopes just fall back to the heap.
const maxPooledSlots = 16

// maxCallDepth bounds minijs-level call recursion so deeply recursive
// scripts fail with a script error instead of exhausting the Go stack. The
// reference interpreter in the test suite applies the identical bound.
const maxCallDepth = 2000

// Pools holds the interpreter's recyclable allocations: non-escaping frames
// by slot count and call-argument slices. A Pools may be shared by every
// Interp of a simulation batch — frames and argument slices are only held
// during a synchronous script execution, never across simulator events, so
// simulations on one goroutine cannot observe each other's frames. Pools is not safe for concurrent use across goroutines.
type Pools struct {
	framePool [maxPooledSlots + 1][]*frame
	argFree   [][]Value
}

// NewPools returns an empty pool set.
func NewPools() *Pools { return &Pools{} }

// Interp executes programs against host-bound builtins. One Interp holds the
// global scope of one page's scripting context; every script and handler of
// the page runs in it.
type Interp struct {
	globals map[string]Value
	ops     int
	maxOps  int
	depth   int // live CallClosure nesting

	// pools recycles frames and call-argument slices, following the
	// simnet/trace free-list pattern: owner-checked under -tags simdebug,
	// invisible otherwise. Private per Interp unless shared via NewWithPools.
	pools *Pools

	// onGlobalRead/onGlobalWrite observe the dynamic-global fallback paths
	// (identifier lookup and assignment that resolve to the globals map).
	// They are nil except while the exec-outcome cache records a script.
	onGlobalRead  func(name string, v Value, ok bool)
	onGlobalWrite func(name string)
}

// DefaultMaxOps bounds total statements+expressions evaluated per Interp,
// guarding against runaway generated loops.
const DefaultMaxOps = 5_000_000

// New creates an interpreter with an empty global scope.
func New() *Interp { return NewWithPools(nil) }

// NewWithPools creates an interpreter drawing frames and argument slices
// from p. A nil p allocates a private pool set.
func NewWithPools(p *Pools) *Interp {
	if p == nil {
		p = NewPools()
	}
	return &Interp{globals: make(map[string]Value, 16), maxOps: DefaultMaxOps, pools: p}
}

// Bind installs a global builtin or value.
func (in *Interp) Bind(name string, v Value) { in.globals[name] = v }

// BindNative installs a global native function.
func (in *Interp) BindNative(name string, f Native) { in.Bind(name, NativeValue(f)) }

// Global returns the value bound to name in the global scope (top-level
// vars, builtins, and implicit globals all live there).
func (in *Interp) Global(name string) (Value, bool) {
	v, ok := in.globals[name]
	return v, ok
}

// GlobalNames returns the names bound in the global scope, sorted.
func (in *Interp) GlobalNames() []string {
	names := make([]string, 0, len(in.globals))
	for name := range in.globals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Ops returns the cumulative count of evaluation steps, the interpreter's
// CPU-cost proxy: the browser engine converts it to device CPU time.
func (in *Interp) Ops() int { return in.ops }

// ResetOps zeroes the op counter (e.g. per measurement phase).
func (in *Interp) ResetOps() { in.ops = 0 }

// TryChargeOps consumes n evaluation steps from the op budget without
// executing anything — the exec-outcome cache uses it to bill a replayed
// script exactly what its recorded execution cost. It reports false (charging
// nothing) when n does not fit the remaining budget, in which case the caller
// must fall back to real execution so the budget error surfaces at the same
// op it would have without the cache.
func (in *Interp) TryChargeOps(n int) bool {
	if n < 0 || in.ops+n > in.maxOps {
		return false
	}
	in.ops += n
	return true
}

// SetGlobalHooks installs (or, with nil arguments, removes) observers on the
// dynamic-global fallback paths: onRead fires when an identifier lookup falls
// through to the globals map, onWrite when an assignment or top-level var
// declaration writes it. The exec-outcome cache uses them to collect a
// script's global read- and write-sets while recording.
func (in *Interp) SetGlobalHooks(onRead func(name string, v Value, ok bool), onWrite func(name string)) {
	in.onGlobalRead = onRead
	in.onGlobalWrite = onWrite
}

// errReturn carries a return value up the stack.
type errReturn struct{ v Value }

func (errReturn) Error() string { return "return outside function" }

// Run executes a program in the global scope.
func (in *Interp) Run(p *Program) error {
	err := in.execBlock(p.Stmts, nil)
	if r, ok := err.(errReturn); ok {
		_ = r
		return nil // top-level return is tolerated
	}
	return err
}

// CallClosure invokes a closure (event handler, timer callback) with args.
func (in *Interp) CallClosure(c *Closure, args ...Value) (Value, error) {
	if c == nil {
		return Null(), fmt.Errorf("minijs: call of null closure")
	}
	if c.scope == nil {
		return Null(), fmt.Errorf("minijs: call of unresolved closure")
	}
	if in.depth >= maxCallDepth {
		return Null(), fmt.Errorf("minijs: call depth exceeded (%d)", maxCallDepth)
	}
	in.depth++
	sc := c.scope
	f := in.newFrame(sc, c.frame)
	for i := range c.Params {
		slot := sc.paramSlots[i]
		if i < len(args) {
			f.slots[slot] = args[i]
		} else {
			f.slots[slot] = Null()
		}
	}
	err := in.execBlock(c.Body, f)
	in.freeFrame(f, sc)
	in.depth--
	if r, ok := err.(errReturn); ok {
		return r.v, nil
	}
	return Null(), err
}

func (in *Interp) step() error {
	in.ops++
	if in.ops > in.maxOps {
		return fmt.Errorf("minijs: op budget exceeded (%d)", in.maxOps)
	}
	return nil
}

// newFrame materializes a scope, recycling a pooled frame of the right size
// when one is free. Pooled frames come back with every slot already reset
// to the unset sentinel.
func (in *Interp) newFrame(sc *scopeInfo, parent *frame) *frame {
	n := len(sc.names)
	if n <= maxPooledSlots {
		if l := in.pools.framePool[n]; len(l) > 0 {
			f := l[len(l)-1]
			in.pools.framePool[n] = l[:len(l)-1]
			f.pooled = false
			f.parent = parent
			return f
		}
	}
	f := &frame{slots: make([]Value, n), parent: parent}
	for i := range f.slots {
		f.slots[i] = Value{kind: kindUnset}
	}
	return f
}

// freeFrame recycles a frame on scope exit — including error unwinding —
// unless the scope escapes: a scope under which a function literal was
// evaluated may be captured by a closure that outlives it, so it is left to
// the garbage collector. Slots are reset to the unset sentinel on release
// so pooled frames neither pin values alive nor leak stale bindings.
func (in *Interp) freeFrame(f *frame, sc *scopeInfo) {
	if sc.escapes {
		return
	}
	checkFrameFree(f)
	n := len(f.slots)
	if n > maxPooledSlots {
		return
	}
	f.pooled = true
	f.parent = nil
	for i := range f.slots {
		f.slots[i] = Value{kind: kindUnset}
	}
	in.pools.framePool[n] = append(in.pools.framePool[n], f)
}

// getArgs pops a call-argument slice off the free list (or allocates one).
func (in *Interp) getArgs(n int) []Value {
	if n == 0 {
		return nil
	}
	if l := len(in.pools.argFree); l > 0 {
		if s := in.pools.argFree[l-1]; cap(s) >= n {
			in.pools.argFree = in.pools.argFree[:l-1]
			return s[:n]
		}
	}
	if n < 4 {
		return make([]Value, n, 4)
	}
	return make([]Value, n)
}

// putArgs returns a call's argument slice to the free list. Natives must
// not retain the slice past their return — they copy values (or Closure
// pointers) out instead, which every engine builtin does.
func (in *Interp) putArgs(s []Value) {
	if cap(s) == 0 {
		return
	}
	for i := range s {
		s[i] = Value{}
	}
	in.pools.argFree = append(in.pools.argFree, s[:0])
}

// lookup resolves an identifier through its compiled candidate bindings:
// the innermost candidate whose slot has been initialized wins (a var whose
// declaration has not executed yet is invisible), with the dynamic global
// map as the final fallback.
func (in *Interp) lookup(x *Ident, f *frame) (Value, bool) {
	for _, c := range x.cands {
		fr := f
		for h := c.hops; h > 0; h-- {
			fr = fr.parent
		}
		if v := fr.slots[c.slot]; v.kind != kindUnset {
			return v, true
		}
	}
	v, ok := in.globals[x.Name]
	if in.onGlobalRead != nil {
		in.onGlobalRead(x.Name, v, ok)
	}
	return v, ok
}

// assign writes through the same candidate walk as lookup, falling back to
// an implicit global (sloppy-mode JS) when no initialized binding exists.
func (in *Interp) assign(cands []slotRef, name string, v Value, f *frame) {
	for _, c := range cands {
		fr := f
		for h := c.hops; h > 0; h-- {
			fr = fr.parent
		}
		if fr.slots[c.slot].kind != kindUnset {
			fr.slots[c.slot] = v
			return
		}
	}
	if in.onGlobalWrite != nil {
		in.onGlobalWrite(name)
	}
	in.globals[name] = v
}

func (in *Interp) execBlock(stmts []Stmt, f *frame) error {
	for _, s := range stmts {
		if err := in.exec(s, f); err != nil {
			return err
		}
	}
	return nil
}

// execScope runs a block in a fresh frame when the block declares variables
// (sc != nil) — fresh per entry, so loop iterations get independent
// bindings — and directly in the enclosing frame otherwise.
func (in *Interp) execScope(stmts []Stmt, sc *scopeInfo, f *frame) error {
	if sc == nil {
		return in.execBlock(stmts, f)
	}
	nf := in.newFrame(sc, f)
	err := in.execBlock(stmts, nf)
	in.freeFrame(nf, sc)
	return err
}

func (in *Interp) exec(s Stmt, f *frame) error {
	if err := in.step(); err != nil {
		return err
	}
	switch s := s.(type) {
	case *VarStmt:
		v := Null()
		if s.Init != nil {
			var err error
			v, err = in.eval(s.Init, f)
			if err != nil {
				return err
			}
		}
		if s.slot >= 0 {
			f.slots[s.slot] = v
		} else {
			if in.onGlobalWrite != nil {
				in.onGlobalWrite(s.Name)
			}
			in.globals[s.Name] = v
		}
		return nil
	case *AssignStmt:
		v, err := in.eval(s.X, f)
		if err != nil {
			return err
		}
		in.assign(s.cands, s.Name, v, f)
		return nil
	case *ExprStmt:
		_, err := in.eval(s.X, f)
		return err
	case *IfStmt:
		cond, err := in.eval(s.Cond, f)
		if err != nil {
			return err
		}
		if cond.Truthy() {
			return in.execScope(s.Then, s.thenScope, f)
		}
		return in.execScope(s.Else, s.elseScope, f)
	case *WhileStmt:
		for {
			cond, err := in.eval(s.Cond, f)
			if err != nil {
				return err
			}
			if !cond.Truthy() {
				return nil
			}
			if err := in.execScope(s.Body, s.bodyScope, f); err != nil {
				return err
			}
			if err := in.step(); err != nil {
				return err
			}
		}
	case *ForStmt:
		scope := f
		if s.initScope != nil {
			// The induction variable gets its own frame; its lifetime spans
			// every iteration, so it is released only when the loop exits.
			scope = in.newFrame(s.initScope, f)
		}
		err := in.runFor(s, scope)
		if s.initScope != nil {
			in.freeFrame(scope, s.initScope)
		}
		return err
	case *ReturnStmt:
		v := Null()
		if s.X != nil {
			var err error
			v, err = in.eval(s.X, f)
			if err != nil {
				return err
			}
		}
		return errReturn{v: v}
	default:
		return fmt.Errorf("minijs: unknown statement %T", s)
	}
}

func (in *Interp) runFor(s *ForStmt, scope *frame) error {
	if s.Init != nil {
		if err := in.exec(s.Init, scope); err != nil {
			return err
		}
	}
	for {
		if s.Cond != nil {
			cond, err := in.eval(s.Cond, scope)
			if err != nil {
				return err
			}
			if !cond.Truthy() {
				return nil
			}
		}
		if err := in.execScope(s.Body, s.bodyScope, scope); err != nil {
			return err
		}
		if s.Post != nil {
			if err := in.exec(s.Post, scope); err != nil {
				return err
			}
		}
		if err := in.step(); err != nil {
			return err
		}
	}
}

func (in *Interp) eval(x Expr, f *frame) (Value, error) {
	if err := in.step(); err != nil {
		return Null(), err
	}
	switch x := x.(type) {
	case *Lit:
		return x.Val, nil
	case *Ident:
		if v, ok := in.lookup(x, f); ok {
			return v, nil
		}
		return Null(), fmt.Errorf("minijs: undefined variable %q", x.Name)
	case *Member:
		base, err := in.eval(x.X, f)
		if err != nil {
			return Null(), err
		}
		if base.kind != kindNamespace {
			return Null(), fmt.Errorf("minijs: member access %q on non-object", x.Name)
		}
		v, ok := base.space[x.Name]
		if !ok {
			return Null(), fmt.Errorf("minijs: unknown member %q", x.Name)
		}
		return v, nil
	case *FuncLit:
		return Value{kind: kindClosure, fn: &Closure{Params: x.Params, Body: x.Body, scope: x.fnScope, frame: f}}, nil
	case *Unary:
		v, err := in.eval(x.X, f)
		if err != nil {
			return Null(), err
		}
		switch x.Op {
		case "!":
			return Bool(!v.Truthy()), nil
		case "-":
			return Number(-v.Num()), nil
		}
		return Null(), fmt.Errorf("minijs: unknown unary op %q", x.Op)
	case *Binary:
		return in.evalBinary(x, f)
	case *Call:
		fnv, err := in.eval(x.Fn, f)
		if err != nil {
			return Null(), err
		}
		args := in.getArgs(len(x.Args))
		for i, a := range x.Args {
			args[i], err = in.eval(a, f)
			if err != nil {
				in.putArgs(args)
				return Null(), err
			}
		}
		var v Value
		switch fnv.kind {
		case kindNative:
			v, err = fnv.nat(args)
		case kindClosure:
			v, err = in.CallClosure(fnv.fn, args...)
		default:
			in.putArgs(args)
			return Null(), fmt.Errorf("minijs: call of non-function")
		}
		in.putArgs(args)
		return v, err
	default:
		return Null(), fmt.Errorf("minijs: unknown expression %T", x)
	}
}

func (in *Interp) evalBinary(x *Binary, f *frame) (Value, error) {
	// Short-circuit operators.
	if x.Op == "&&" || x.Op == "||" {
		l, err := in.eval(x.L, f)
		if err != nil {
			return Null(), err
		}
		if x.Op == "&&" && !l.Truthy() {
			return l, nil
		}
		if x.Op == "||" && l.Truthy() {
			return l, nil
		}
		return in.eval(x.R, f)
	}
	l, err := in.eval(x.L, f)
	if err != nil {
		return Null(), err
	}
	r, err := in.eval(x.R, f)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case "+":
		if l.kind == kindString || r.kind == kindString {
			return String(l.Str() + r.Str()), nil
		}
		return Number(l.Num() + r.Num()), nil
	case "-":
		return Number(l.Num() - r.Num()), nil
	case "*":
		return Number(l.Num() * r.Num()), nil
	case "/":
		return Number(l.Num() / r.Num()), nil
	case "%":
		ri := r.Num()
		if ri == 0 {
			return Number(0), nil
		}
		return Number(float64(int64(l.Num()) % int64(ri))), nil
	case "==":
		return Bool(l.Equals(r)), nil
	case "!=":
		return Bool(!l.Equals(r)), nil
	case "<":
		return compare(l, r, func(c int) bool { return c < 0 }), nil
	case ">":
		return compare(l, r, func(c int) bool { return c > 0 }), nil
	case "<=":
		return compare(l, r, func(c int) bool { return c <= 0 }), nil
	case ">=":
		return compare(l, r, func(c int) bool { return c >= 0 }), nil
	}
	return Null(), fmt.Errorf("minijs: unknown operator %q", x.Op)
}

func compare(l, r Value, ok func(int) bool) Value {
	if l.kind == kindString && r.kind == kindString {
		return Bool(ok(strings.Compare(l.s, r.s)))
	}
	ln, rn := l.Num(), r.Num()
	switch {
	case ln < rn:
		return Bool(ok(-1))
	case ln > rn:
		return Bool(ok(1))
	default:
		return Bool(ok(0))
	}
}
