package minijs

import (
	"fmt"
	"strings"
)

// This file preserves the pre-refactor interpreter — map[string]Value
// environment chains walked by name at runtime — as a reference
// implementation. The closure-compiled interpreter (compile.go) must be
// observationally identical to it: same emitted native calls, same error
// strings, same op counts, same final globals. TestSlotResolvedMatchesRef
// and FuzzMinijs enforce that equivalence.
//
// The only deliberate additions relative to the original are the
// maxCallDepth bound (which interp.go also applies, with the identical
// error string — fuzz inputs can otherwise recurse past the Go stack) and
// the clos side map, which stands in for the parameters, body and env the
// production Closure no longer carries (it holds compiled code instead).
// errReturn and refCompare are the original's, kept here because the
// compiled interpreter no longer uses them. The one deliberate change is
// in `%`: a divisor that truncates to 0 yields 0 on both sides, where the
// original divided by zero and panicked.

type refEnv struct {
	vars   map[string]Value
	parent *refEnv
}

func (e *refEnv) lookup(name string) (Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return Value{}, false
}

func (e *refEnv) assign(name string, v Value) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.vars[name]; ok {
			s.vars[name] = v
			return true
		}
	}
	return false
}

// errReturn carries a return value up the reference interpreter's stack.
type errReturn struct{ v Value }

func (errReturn) Error() string { return "return outside function" }

// refClosure is what the reference interpreter knows of a closure it made.
type refClosure struct {
	lit *FuncLit
	env *refEnv
}

type refInterp struct {
	globals *refEnv
	ops     int
	maxOps  int
	depth   int
	// clos maps each closure created by this interpreter to its function
	// literal and captured environment chain.
	clos map[*Closure]refClosure
}

func newRef() *refInterp {
	return &refInterp{
		globals: &refEnv{vars: make(map[string]Value)},
		maxOps:  DefaultMaxOps,
		clos:    make(map[*Closure]refClosure),
	}
}

func (in *refInterp) bind(name string, v Value)        { in.globals.vars[name] = v }
func (in *refInterp) bindNative(name string, f Native) { in.bind(name, NativeValue(f)) }

func (in *refInterp) run(p *Program) error {
	err := in.execBlock(p.Stmts, in.globals)
	if _, ok := err.(errReturn); ok {
		return nil // top-level return is tolerated
	}
	return err
}

func (in *refInterp) callClosure(c *Closure, args ...Value) (Value, error) {
	if c == nil {
		return Null(), fmt.Errorf("minijs: call of null closure")
	}
	if in.depth >= maxCallDepth {
		return Null(), fmt.Errorf("minijs: call depth exceeded (%d)", maxCallDepth)
	}
	in.depth++
	rc := in.clos[c]
	scope := &refEnv{vars: make(map[string]Value, len(rc.lit.Params)), parent: rc.env}
	for i, p := range rc.lit.Params {
		if i < len(args) {
			scope.vars[p] = args[i]
		} else {
			scope.vars[p] = Null()
		}
	}
	err := in.execBlock(rc.lit.Body, scope)
	in.depth--
	if r, ok := err.(errReturn); ok {
		return r.v, nil
	}
	return Null(), err
}

func (in *refInterp) step() error {
	in.ops++
	if in.ops > in.maxOps {
		return fmt.Errorf("minijs: op budget exceeded (%d)", in.maxOps)
	}
	return nil
}

func refBlockScope(stmts []Stmt, e *refEnv) *refEnv {
	n := 0
	for _, s := range stmts {
		if _, ok := s.(*VarStmt); ok {
			n++
		}
	}
	if n == 0 {
		return e
	}
	return &refEnv{vars: make(map[string]Value, n), parent: e}
}

func (in *refInterp) execBlock(stmts []Stmt, e *refEnv) error {
	for _, s := range stmts {
		if err := in.exec(s, e); err != nil {
			return err
		}
	}
	return nil
}

func (in *refInterp) exec(s Stmt, e *refEnv) error {
	if err := in.step(); err != nil {
		return err
	}
	switch s := s.(type) {
	case *VarStmt:
		v := Null()
		if s.Init != nil {
			var err error
			v, err = in.eval(s.Init, e)
			if err != nil {
				return err
			}
		}
		e.vars[s.Name] = v
		return nil
	case *AssignStmt:
		v, err := in.eval(s.X, e)
		if err != nil {
			return err
		}
		if !e.assign(s.Name, v) {
			// Implicit global, like sloppy-mode JS.
			in.globals.vars[s.Name] = v
		}
		return nil
	case *ExprStmt:
		_, err := in.eval(s.X, e)
		return err
	case *IfStmt:
		cond, err := in.eval(s.Cond, e)
		if err != nil {
			return err
		}
		if cond.Truthy() {
			return in.execBlock(s.Then, refBlockScope(s.Then, e))
		}
		return in.execBlock(s.Else, refBlockScope(s.Else, e))
	case *WhileStmt:
		for {
			cond, err := in.eval(s.Cond, e)
			if err != nil {
				return err
			}
			if !cond.Truthy() {
				return nil
			}
			if err := in.execBlock(s.Body, refBlockScope(s.Body, e)); err != nil {
				return err
			}
			if err := in.step(); err != nil {
				return err
			}
		}
	case *ForStmt:
		scope := e
		if s.Init != nil {
			// The induction variable needs its own scope; condition-only
			// loops can evaluate against the enclosing one.
			scope = &refEnv{vars: make(map[string]Value, 1), parent: e}
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
			if err := in.execBlock(s.Body, refBlockScope(s.Body, scope)); err != nil {
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
	case *ReturnStmt:
		v := Null()
		if s.X != nil {
			var err error
			v, err = in.eval(s.X, e)
			if err != nil {
				return err
			}
		}
		return errReturn{v: v}
	default:
		return fmt.Errorf("minijs: unknown statement %T", s)
	}
}

func (in *refInterp) eval(x Expr, e *refEnv) (Value, error) {
	if err := in.step(); err != nil {
		return Null(), err
	}
	switch x := x.(type) {
	case *Lit:
		return x.Val, nil
	case *Ident:
		if v, ok := e.lookup(x.Name); ok {
			return v, nil
		}
		return Null(), fmt.Errorf("minijs: undefined variable %q", x.Name)
	case *Member:
		base, err := in.eval(x.X, e)
		if err != nil {
			return Null(), err
		}
		if base.kind() != kindNamespace {
			return Null(), fmt.Errorf("minijs: member access %q on non-object", x.Name)
		}
		v, ok := base.obj.space[x.Name]
		if !ok {
			return Null(), fmt.Errorf("minijs: unknown member %q", x.Name)
		}
		return v, nil
	case *FuncLit:
		v := Value{obj: &object{kind: kindClosure}}
		in.clos[v.Closure()] = refClosure{lit: x, env: e}
		return v, nil
	case *Unary:
		v, err := in.eval(x.X, e)
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
		return in.evalBinary(x, e)
	case *Call:
		fnv, err := in.eval(x.Fn, e)
		if err != nil {
			return Null(), err
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			args[i], err = in.eval(a, e)
			if err != nil {
				return Null(), err
			}
		}
		switch fnv.kind() {
		case kindNative:
			return fnv.obj.nat(args)
		case kindClosure:
			return in.callClosure(fnv.Closure(), args...)
		default:
			return Null(), fmt.Errorf("minijs: call of non-function")
		}
	default:
		return Null(), fmt.Errorf("minijs: unknown expression %T", x)
	}
}

func (in *refInterp) evalBinary(x *Binary, e *refEnv) (Value, error) {
	// Short-circuit operators.
	if x.Op == "&&" || x.Op == "||" {
		l, err := in.eval(x.L, e)
		if err != nil {
			return Null(), err
		}
		if x.Op == "&&" && !l.Truthy() {
			return l, nil
		}
		if x.Op == "||" && l.Truthy() {
			return l, nil
		}
		return in.eval(x.R, e)
	}
	l, err := in.eval(x.L, e)
	if err != nil {
		return Null(), err
	}
	r, err := in.eval(x.R, e)
	if err != nil {
		return Null(), err
	}
	switch x.Op {
	case "+":
		if l.kind() == kindString || r.kind() == kindString {
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
		ri := int64(r.Num())
		if ri == 0 {
			return Number(0), nil
		}
		return Number(float64(int64(l.Num()) % ri)), nil
	case "==":
		return Bool(l.Equals(r)), nil
	case "!=":
		return Bool(!l.Equals(r)), nil
	case "<":
		return refCompare(l, r, func(c int) bool { return c < 0 }), nil
	case ">":
		return refCompare(l, r, func(c int) bool { return c > 0 }), nil
	case "<=":
		return refCompare(l, r, func(c int) bool { return c <= 0 }), nil
	case ">=":
		return refCompare(l, r, func(c int) bool { return c >= 0 }), nil
	}
	return Null(), fmt.Errorf("minijs: unknown operator %q", x.Op)
}

func refCompare(l, r Value, ok func(int) bool) Value {
	if l.kind() == kindString && r.kind() == kindString {
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

// refGlobalsByStr renders the reference interpreter's global scope the way
// the differential harness compares it.
func (in *refInterp) globalsByStr() map[string]string {
	m := make(map[string]string, len(in.globals.vars))
	for k, v := range in.globals.vars {
		m[k] = v.Str()
	}
	return m
}
