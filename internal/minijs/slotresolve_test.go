package minijs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Differential harness: run the same program through the closure-compiled
// interpreter and the map-env reference (reference_test.go) under
// identical deterministic builtins, and demand identical observable
// behavior — emitted native calls, error strings, op counts, and final
// globals.

type diffResult struct {
	calls   []string
	err     string
	ops     int
	globals map[string]string
}

func (d diffResult) equal(o diffResult) bool {
	if d.err != o.err || d.ops != o.ops || len(d.calls) != len(o.calls) || len(d.globals) != len(o.globals) {
		return false
	}
	for i := range d.calls {
		if d.calls[i] != o.calls[i] {
			return false
		}
	}
	for k, v := range d.globals {
		if o.globals[k] != v {
			return false
		}
	}
	return true
}

// harnessNatives builds the builtin set both interpreters run under. call
// invokes a closure on the owning interpreter — the only per-side
// difference. setTimeout and onEvent call their callbacks immediately so
// closure capture is exercised on every input that registers one.
func harnessNatives(rec *[]string, call func(*Closure, ...Value) (Value, error)) map[string]Value {
	ctr := 0
	record := func(name string, args []Value) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.Str()
		}
		*rec = append(*rec, name+":"+strings.Join(parts, "|"))
	}
	simple := func(name string) Value {
		return NativeValue(func(args []Value) (Value, error) {
			record(name, args)
			return Null(), nil
		})
	}
	return map[string]Value{
		"emit":  simple("emit"),
		"log":   simple("log"),
		"fetch": simple("fetch"),
		"fetchAsync": NativeValue(func(args []Value) (Value, error) {
			record("fetchAsync", args)
			return Null(), nil
		}),
		"rand": NativeValue(func(args []Value) (Value, error) {
			ctr++
			return Number(float64(ctr)), nil
		}),
		"setTimeout": NativeValue(func(args []Value) (Value, error) {
			record("setTimeout", args)
			if len(args) >= 2 {
				if c := args[1].Closure(); c != nil {
					return call(c)
				}
			}
			return Null(), nil
		}),
		"onEvent": NativeValue(func(args []Value) (Value, error) {
			record("onEvent", args)
			if len(args) >= 3 {
				if c := args[2].Closure(); c != nil {
					return call(c, String("evt"))
				}
			}
			return Null(), nil
		}),
		"document": Namespace(map[string]Value{
			"write": NativeValue(func(args []Value) (Value, error) {
				record("write", args)
				return Null(), nil
			}),
		}),
	}
}

func runSlotted(prog *Program, maxOps int) diffResult {
	in := New()
	in.maxOps = maxOps
	var calls []string
	for name, v := range harnessNatives(&calls, in.CallClosure) {
		in.Bind(name, v)
	}
	res := diffResult{globals: make(map[string]string)}
	if err := in.Run(prog); err != nil {
		res.err = err.Error()
	}
	res.calls = calls
	res.ops = in.Ops()
	for k, v := range in.globals {
		res.globals[k] = v.Str()
	}
	return res
}

func runReference(prog *Program, maxOps int) diffResult {
	in := newRef()
	in.maxOps = maxOps
	var calls []string
	for name, v := range harnessNatives(&calls, in.callClosure) {
		in.bind(name, v)
	}
	res := diffResult{}
	if err := in.run(prog); err != nil {
		res.err = err.Error()
	}
	res.calls = calls
	res.ops = in.ops
	res.globals = in.globalsByStr()
	return res
}

// checkDiff parses src once and runs the same program through both
// interpreters (the reference walks its AST; the compiled side runs its
// closures).
func checkDiff(t *testing.T, src string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	const maxOps = 200_000
	got, want := runSlotted(prog, maxOps), runReference(prog, maxOps)
	if !got.equal(want) {
		t.Fatalf("compiled and reference interpreters diverge on %q:\n slotted: %+v\n reference: %+v", src, got, want)
	}
}

func TestSlotResolvedMatchesRef(t *testing.T) {
	corpus := []string{
		// Shadowing across block scopes, including use-before-declaration
		// inside the shadowing block (the assignment must hit the outer
		// binding while the block's own var is still unset).
		`var x = 1;
		 if (true) { x = 2; var x = 3; emit(x); }
		 emit(x);`,
		`var x = "outer";
		 for (var i = 0; i < 2; i = i + 1) { emit(x); var x = "inner" + i; emit(x); }
		 emit(x);`,
		`var x = 1;
		 while (x < 3) { var y = x * 10; x = x + 1; emit(y); }
		 emit(x);`,
		// Reading a block var before its declaration falls through to the
		// global of the same name; after declaration the block slot wins.
		`var v = "global";
		 var f = function() { emit(v); var v = "local"; emit(v); };
		 f(); emit(v);`,
		// Implicit globals created from inside closures.
		`var f = function() { g = 42; }; f(); emit(g); g = g + 1; emit(g);`,
		// Per-iteration closure capture: each iteration's block frame is
		// distinct, so each closure sees its own snapshot.
		`var mk = function(n) { return function() { return n * 2; }; };
		 var a = mk(3); var b = mk(5);
		 emit(a(), b(), a());`,
		// Duplicate parameter names: the last argument wins.
		`var f = function(a, a) { return a; }; emit(f(1, 2));`,
		// Missing arguments become null.
		`var f = function(a, b) { emit(a, b); }; f(7);`,
		// Closures escaping their defining loop iteration, called after the
		// loop (and its frames) are gone.
		`var saved = null;
		 for (var i = 0; i < 3; i = i + 1) { var n = i; saved = function() { return n; }; }
		 emit(saved());`,
		// Deep nesting mixes pooled block frames and escaping function frames.
		`var total = 0;
		 var add = function(n) { total = total + n; return total; };
		 for (var i = 1; i <= 3; i = i + 1) {
		   for (var j = 1; j <= 3; j = j + 1) { var p = i * j; add(p); }
		 }
		 emit(total);`,
		// Recursion.
		`var fib = function(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); };
		 emit(fib(12));`,
		// Builtin-driven closure invocation (setTimeout calls immediately).
		`var hits = 0;
		 setTimeout(10, function() { hits = hits + 1; emit("timer " + hits); });
		 onEvent("click", "buy", function(e) { emit("event " + e); });
		 emit(hits);`,
		// Errors must match exactly: undefined variable...
		`emit(nosuchvar);`,
		// ...calling a non-function...
		`var x = 3; x();`,
		// ...member access on non-objects and unknown members...
		`var x = 1; x.foo();`,
		`document.nosuch();`,
		// ...and op-budget exhaustion (ops at exit must agree too).
		`while (true) { var x = 1; }`,
		// Mixed arithmetic, strings, logic.
		`emit(1 + 2 * 3, "a" + 1, 10 % 3, 10 % 0, -(4), !0, 1 < 2 && "x" < "y");`,
		`emit(null == null, 1 == "1", true != false, 2 <= 2, "b" >= "a");`,
		`var h = 0.5; emit(5 % h, 5 % 0.5, -7 % -0.9, 9 % 2.5, "a" < 1, "a" < "a");`,
		// for-loop with assignment init and empty sections.
		`var i = 0; for (i = 5; i < 8; i = i + 1) { emit(i); } emit(i);`,
		`var n = 0; for (; n < 2;) { n = n + 1; } emit(n);`,
	}
	for _, src := range corpus {
		checkDiff(t, src)
	}
}

func TestRecursionDepthBounded(t *testing.T) {
	src := `var rec = function(n) { if (n <= 0) { return 0; } return rec(n - 1); }; emit(rec(%d));`
	prog, err := Parse(fmt.Sprintf(src, 500))
	if err != nil {
		t.Fatal(err)
	}
	if res := runSlotted(prog, 5_000_000); res.err != "" {
		t.Fatalf("depth 500 failed: %v", res.err)
	}
	prog, err = Parse(fmt.Sprintf(src, 5000))
	if err != nil {
		t.Fatal(err)
	}
	res := runSlotted(prog, 5_000_000)
	if !strings.Contains(res.err, "call depth exceeded") {
		t.Fatalf("depth 5000: err = %q, want call depth exceeded", res.err)
	}
	// And the reference agrees, including the error string.
	checkDiff(t, fmt.Sprintf(src, 5000))
}

func TestLoopFramesAreRecycled(t *testing.T) {
	// A loop body that declares a variable but creates no closures must
	// recycle its frame: after the run, the pool for 1-slot frames holds
	// exactly the body frame the loop reused each iteration plus the
	// init frame released at loop exit — not 100 per-iteration frames.
	prog, err := Parse(`for (var i = 0; i < 100; i = i + 1) { var y = i * 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := len(in.pools.framePool[1]); got != 2 {
		t.Fatalf("1-slot frame pool holds %d frames after loop, want 2 (body reused + init)", got)
	}
	for _, f := range in.pools.framePool[1] {
		for i, v := range f.slots {
			if v.kind() != kindUnset {
				t.Fatalf("pooled frame slot %d not reset: kind %d", i, v.kind())
			}
		}
	}
}

func TestEscapingFramesAreNotRecycled(t *testing.T) {
	// A function that returns a closure marks its scope escaping; its
	// frames must never enter the pool, or the captured variable would be
	// clobbered by later calls.
	prog, err := Parse(`
		var mk = function(n) { return function() { return n; }; };
		var a = mk(1); var b = mk(2);
		emit(a(), b());
	`)
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	var calls []string
	in.BindNative("emit", func(args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.Str()
		}
		calls = append(calls, strings.Join(parts, "|"))
		return Null(), nil
	})
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != "1|2" {
		t.Fatalf("calls = %v, want [1|2]", calls)
	}
	// mk's param frames hold the captured n and must stay out of the pool.
	// (The returned closures' own 0-slot call frames capture nothing and
	// may be recycled — only the defining scope escapes.)
	if got := len(in.pools.framePool[1]); got != 0 {
		t.Fatalf("1-slot pool holds %d frames, want 0 (mk's frames escape)", got)
	}
}

func TestCompileMemoizes(t *testing.T) {
	const src = `var compile_memo_probe = 1;`
	p1, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Compile did not memoize: distinct *Program for identical source")
	}
	p3, err := CompileBytes([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("CompileBytes missed the cache for identical source")
	}
	if _, err := Compile(`var = broken`); err == nil {
		t.Fatal("Compile of invalid source did not error")
	}
}

func TestCompileConcurrentSharing(t *testing.T) {
	// The runner's worker pool compiles and runs the same scripts from many
	// goroutines; the cache must be safe and the shared Program immutable
	// in use. Run with -race to make violations loud.
	srcs := []string{
		`var s = 0; for (var i = 0; i < 50; i = i + 1) { s = s + i; } emit(s);`,
		`var f = function(n) { return n + 1; }; emit(f(1), f(2));`,
		`var x = "a"; if (x == "a") { var y = x + "b"; emit(y); }`,
	}
	// Every goroutine also compiles one shared body slice per source, and a
	// copy of its own, so identity hits and content hits race with the
	// stores that create them; all must return Compile's *Program.
	bodies := make([][]byte, len(srcs))
	for i, src := range srcs {
		bodies[i] = []byte(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, src := range srcs {
					prog, err := Compile(src)
					if err != nil {
						t.Error(err)
						return
					}
					shared, _ := CompileBytes(bodies[i])
					own, _ := CompileBytes([]byte(src))
					if shared != prog || own != prog {
						t.Error("CompileBytes returned another *Program than Compile")
						return
					}
					in := New()
					in.BindNative("emit", func([]Value) (Value, error) { return Null(), nil })
					if err := in.Run(prog); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompileRaceKeepsFirstProgram: goroutines compiling one fresh source at
// once all get the same *Program. A loser of the store race must not replace
// the winner's entry, or memos keyed by program (the exec-outcome memo)
// would record the script twice.
func TestCompileRaceKeepsFirstProgram(t *testing.T) {
	for round := 0; round < 20; round++ {
		src := fmt.Sprintf("var compile_race_%d = %d;", round, round)
		const n = 8
		progs := make([]*Program, n)
		var start, wg sync.WaitGroup
		start.Add(1)
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				p, err := Compile(src)
				if err != nil {
					t.Error(err)
				}
				progs[g] = p
			}()
		}
		start.Done()
		wg.Wait()
		cached, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for g, p := range progs {
			if p != cached {
				t.Fatalf("round %d: goroutine %d got a Program other than the cached one", round, g)
			}
		}
	}
}
