package minijs

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Value is a runtime value: null, bool, number, string, closure, native
// function, or namespace.
//
// A Value is three fields in four machine words, small enough for the
// compiler to keep in registers: the operands of a binary operator and an
// evaluation's result never round-trip through memory. The kind lives
// behind obj: scalars point at one shared tag per kind (so a kind test is a
// pointer compare), reference values at their own object, and null at
// nothing.
type Value struct {
	obj *object
	n   float64 // number; a bool holds 1 for true, 0 for false
	s   string  // string
}

// object is a Value's kind and, for closures, natives and namespaces, what
// the value refers to.
type object struct {
	kind    valueKind
	closure Closure
	nat     Native
	space   map[string]Value
}

// The kind tags of the scalar values (null has none).
var (
	boolTag   = object{kind: kindBool}
	numberTag = object{kind: kindNumber}
	stringTag = object{kind: kindString}
	unsetTag  = object{kind: kindUnset}
)

func (v Value) kind() valueKind {
	if v.obj == nil {
		return kindNull
	}
	return v.obj.kind
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
func Bool(b bool) Value {
	if b {
		return Value{obj: &boolTag, n: 1}
	}
	return Value{obj: &boolTag}
}

// Number wraps a float64.
func Number(n float64) Value { return Value{obj: &numberTag, n: n} }

// String wraps a string.
func String(s string) Value { return Value{obj: &stringTag, s: s} }

// NativeValue wraps a host function.
func NativeValue(f Native) Value { return Value{obj: &object{kind: kindNative, nat: f}} }

// Namespace wraps a map of named host functions (e.g. the document object).
func Namespace(m map[string]Value) Value { return Value{obj: &object{kind: kindNamespace, space: m}} }

// IsScalar reports whether v is null, bool, number or string — a value that
// carries no reference to any interpreter instance and can therefore be
// transplanted between interpreters (the exec-outcome cache relies on this).
func (v Value) IsScalar() bool { return v.kind() <= kindString }

// SameKind reports whether v and o hold the same kind of value.
func (v Value) SameKind(o Value) bool { return v.kind() == o.kind() }

// Truthy follows JavaScript-like coercion.
func (v Value) Truthy() bool {
	switch v.kind() {
	case kindNull:
		return false
	case kindBool:
		return v.n != 0
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
	if v.obj == &numberTag {
		return v.n
	}
	return 0
}

// Str renders the value as a string, the way string concatenation sees it.
func (v Value) Str() string {
	switch v.kind() {
	case kindNull:
		return "null"
	case kindBool:
		return strconv.FormatBool(v.n != 0)
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
	if v.kind() == kindClosure {
		return &v.obj.closure
	}
	return nil
}

// Equals implements the == operator.
func (v Value) Equals(o Value) bool {
	if v.kind() != o.kind() {
		return false
	}
	switch v.kind() {
	case kindNull:
		return true
	case kindBool:
		return v.n == o.n
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

// Closure is a user function with its captured environment: the function
// literal's compiled code plus the frame chain live at creation.
type Closure struct {
	code  *funcCode
	frame *frame
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
	// ret carries a return statement's value to the CallClosure (or Run)
	// that errReturnSignal unwinds to.
	ret Value

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

// errReturnSignal unwinds a return statement to the nearest CallClosure or
// Run, which takes the value from Interp.ret: a sentinel rather than an
// error carrying the value, so returning allocates nothing.
var errReturnSignal = errors.New("return outside function")

// Run executes a program in the global scope.
func (in *Interp) Run(p *Program) error {
	err := p.run(in, nil)
	if err == errReturnSignal {
		in.ret = Value{}
		return nil // top-level return is tolerated
	}
	return err
}

// CallClosure invokes a closure (event handler, timer callback) with args.
func (in *Interp) CallClosure(c *Closure, args ...Value) (Value, error) {
	if c == nil {
		return Null(), fmt.Errorf("minijs: call of null closure")
	}
	if c.code == nil {
		return Null(), fmt.Errorf("minijs: call of unresolved closure")
	}
	if in.depth >= maxCallDepth {
		return Null(), fmt.Errorf("minijs: call depth exceeded (%d)", maxCallDepth)
	}
	in.depth++
	sc := c.code.scope
	f := in.newFrame(sc, c.frame)
	for i, slot := range sc.paramSlots {
		if i < len(args) {
			f.slots[slot] = args[i]
		} else {
			f.slots[slot] = Null()
		}
	}
	err := c.code.body(in, f)
	in.freeFrame(f, sc)
	in.depth--
	if err == errReturnSignal {
		v := in.ret
		in.ret = Value{}
		return v, nil
	}
	return Null(), err
}

// step charges one evaluation step against the op budget.
func (in *Interp) step() error {
	in.ops++
	if in.ops > in.maxOps {
		return in.budgetExceeded()
	}
	return nil
}

// budgetExceeded is kept out of line so that step inlines into every
// compiled node.
//
//go:noinline
func (in *Interp) budgetExceeded() error {
	return fmt.Errorf("minijs: op budget exceeded (%d)", in.maxOps)
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
		f.slots[i] = Value{obj: &unsetTag}
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
		f.slots[i] = Value{obj: &unsetTag}
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

// global reads a name from the dynamic global map — the fallback of every
// identifier no initialized frame slot binds.
func (in *Interp) global(name string) (Value, error) {
	v, ok := in.globals[name]
	if in.onGlobalRead != nil {
		in.onGlobalRead(name, v, ok)
	}
	if !ok {
		return Null(), fmt.Errorf("minijs: undefined variable %q", name)
	}
	return v, nil
}

// setGlobal writes a name in the dynamic global map: a top-level var, or an
// assignment no initialized frame slot binds (an implicit global, as in
// sloppy-mode JS).
func (in *Interp) setGlobal(name string, v Value) {
	if in.onGlobalWrite != nil {
		in.onGlobalWrite(name)
	}
	in.globals[name] = v
}
