package minijs

import (
	"strings"
	"testing"
)

// run executes src in a fresh interpreter with optional builtins, returning
// the interpreter for inspection.
func run(t *testing.T, src string, builtins map[string]Native) *Interp {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := New()
	for name, f := range builtins {
		in.BindNative(name, f)
	}
	if err := in.Run(prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in
}

func collectCalls(calls *[]string) Native {
	return func(args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.Str()
		}
		*calls = append(*calls, strings.Join(parts, "|"))
		return Null(), nil
	}
}

func TestArithmeticAndVars(t *testing.T) {
	var calls []string
	run(t, `var x = 2 + 3 * 4; var y = (2+3) * 4; emit(x, y, 10/4, 7%3);`,
		map[string]Native{"emit": collectCalls(&calls)})
	if len(calls) != 1 || calls[0] != "14|20|2.5|1" {
		t.Fatalf("calls = %v", calls)
	}
}

// TestModuloByFractionTruncatesToZero: the remainder is taken on integers,
// and a divisor that truncates to 0 yields 0 like a 0 divisor does, instead
// of dividing by zero in the host.
func TestModuloByFractionTruncatesToZero(t *testing.T) {
	var calls []string
	run(t, `var h = 0.5; emit(5 % 0.5, -7 % 0.9, 7 % 0, 7.9 % 2.5, 20000 % 0.000001, 3 % h);`,
		map[string]Native{"emit": collectCalls(&calls)})
	if len(calls) != 1 || calls[0] != "0|0|0|1|0|0" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestStringConcat(t *testing.T) {
	var calls []string
	run(t, `var base = "http://x.com/img"; emit(base + "/" + 5 + ".png");`,
		map[string]Native{"emit": collectCalls(&calls)})
	if calls[0] != "http://x.com/img/5.png" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestIfElse(t *testing.T) {
	var calls []string
	run(t, `
var a = 5;
if (a > 3) { emit("big"); } else { emit("small"); }
if (a == 5) { emit("five"); }
if (a != 5) { emit("notfive"); } else if (a >= 5) { emit("ge5"); }
`, map[string]Native{"emit": collectCalls(&calls)})
	want := "big,five,ge5"
	if strings.Join(calls, ",") != want {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
}

func TestForLoop(t *testing.T) {
	var calls []string
	run(t, `for (var i = 0; i < 3; i = i + 1) { emit("it" + i); }`,
		map[string]Native{"emit": collectCalls(&calls)})
	if strings.Join(calls, ",") != "it0,it1,it2" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestWhileLoop(t *testing.T) {
	var calls []string
	run(t, `var n = 3; while (n > 0) { emit(n); n = n - 1; }`,
		map[string]Native{"emit": collectCalls(&calls)})
	if strings.Join(calls, ",") != "3,2,1" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestClosuresCaptureEnvironment(t *testing.T) {
	var calls []string
	run(t, `
var prefix = "img-";
var mk = function(n) { return prefix + n; };
emit(mk(1), mk(2));
`, map[string]Native{"emit": collectCalls(&calls)})
	if calls[0] != "img-1|img-2" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestClosureStoredAndCalledLater(t *testing.T) {
	var handler *Closure
	in := run(t, `
var clicks = 0;
onEvent("click", function() { clicks = clicks + 1; emit("clicked " + clicks); });
`, map[string]Native{
		"emit": func(args []Value) (Value, error) { return Null(), nil },
		"onEvent": func(args []Value) (Value, error) {
			handler = args[1].Closure()
			return Null(), nil
		},
	})
	if handler == nil {
		t.Fatal("handler not captured")
	}
	for i := 0; i < 3; i++ {
		if _, err := in.CallClosure(handler); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := in.Global("clicks")
	if !ok || v.Num() != 3 {
		t.Fatalf("clicks = %v", v)
	}
}

func TestReturnValue(t *testing.T) {
	var calls []string
	run(t, `
var f = function(x) { if (x > 0) { return "pos"; } return "nonpos"; };
emit(f(1), f(-1), f(0));
`, map[string]Native{"emit": collectCalls(&calls)})
	if calls[0] != "pos|nonpos|nonpos" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestNamespaceMemberCall(t *testing.T) {
	var writes []string
	in := New()
	in.Bind("document", Namespace(map[string]Value{
		"write": NativeValue(func(args []Value) (Value, error) {
			writes = append(writes, args[0].Str())
			return Null(), nil
		}),
	}))
	prog, err := Parse(`document.write("<img src='/x.png'>");`)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(prog); err != nil {
		t.Fatal(err)
	}
	if len(writes) != 1 || !strings.Contains(writes[0], "x.png") {
		t.Fatalf("writes = %v", writes)
	}
}

func TestBooleansAndLogic(t *testing.T) {
	var calls []string
	run(t, `
var t = true; var f = false;
if (t && !f) { emit("and"); }
if (f || t) { emit("or"); }
if (null == null) { emit("nulleq"); }
`, map[string]Native{"emit": collectCalls(&calls)})
	if strings.Join(calls, ",") != "and,or,nulleq" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestShortCircuitSkipsRHS(t *testing.T) {
	var calls []string
	run(t, `var f = false; f && boom(); var t = true; t || boom(); emit("ok");`,
		map[string]Native{
			"emit": collectCalls(&calls),
			"boom": func([]Value) (Value, error) { panic("short circuit failed") },
		})
	if len(calls) != 1 {
		t.Fatalf("calls = %v", calls)
	}
}

func TestUndefinedVariableErrors(t *testing.T) {
	prog, err := Parse(`emit(nosuchvar);`)
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	in.BindNative("emit", func([]Value) (Value, error) { return Null(), nil })
	if err := in.Run(prog); err == nil {
		t.Fatal("undefined variable did not error")
	}
}

func TestCallNonFunctionErrors(t *testing.T) {
	prog, _ := Parse(`var x = 3; x();`)
	if err := New().Run(prog); err == nil {
		t.Fatal("calling a number did not error")
	}
}

func TestOpBudgetStopsInfiniteLoop(t *testing.T) {
	prog, err := Parse(`while (true) { var x = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	in := New()
	in.maxOps = 10_000
	if err := in.Run(prog); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want op budget error", err)
	}
}

func TestOpsCounted(t *testing.T) {
	in := run(t, `for (var i = 0; i < 100; i = i + 1) { var y = i * 2; }`, nil)
	if in.Ops() < 300 {
		t.Fatalf("Ops = %d, want several hundred", in.Ops())
	}
	in.ResetOps()
	if in.Ops() != 0 {
		t.Fatal("ResetOps failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`var = 3;`,
		`if (x { }`,
		`function( { }`,
		`"unterminated`,
		`var x = @;`,
		`for (;;) {`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestComments(t *testing.T) {
	var calls []string
	run(t, `
// line comment with fetch("ghost")
/* block
   comment */
emit("real");
`, map[string]Native{"emit": collectCalls(&calls)})
	if len(calls) != 1 || calls[0] != "real" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestImplicitGlobalAssignment(t *testing.T) {
	in := run(t, `var f = function() { g = 42; }; f();`, nil)
	v, ok := in.Global("g")
	if !ok || v.Num() != 42 {
		t.Fatalf("g = %v, ok=%v", v, ok)
	}
}

func TestValueStr(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Number(3), "3"},
		{Number(2.5), "2.5"},
		{String("s"), "s"},
	}
	for _, c := range cases {
		if got := c.v.Str(); got != c.want {
			t.Errorf("Str(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestTruthiness(t *testing.T) {
	if Null().Truthy() || Bool(false).Truthy() || Number(0).Truthy() || String("").Truthy() {
		t.Fatal("falsy value was truthy")
	}
	if !Bool(true).Truthy() || !Number(1).Truthy() || !String("x").Truthy() {
		t.Fatal("truthy value was falsy")
	}
}

func TestNestedLoopsAndFunctions(t *testing.T) {
	var calls []string
	run(t, `
var total = 0;
var add = function(n) { total = total + n; return total; };
for (var i = 1; i <= 3; i = i + 1) {
  for (var j = 1; j <= 3; j = j + 1) {
    add(i * j);
  }
}
emit(total);
`, map[string]Native{"emit": collectCalls(&calls)})
	if calls[0] != "36" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestStringEscapes(t *testing.T) {
	var calls []string
	run(t, `emit("a\"b", 'c\'d', "tab\there");`,
		map[string]Native{"emit": collectCalls(&calls)})
	if calls[0] != "a\"b|c'd|tab\there" {
		t.Fatalf("calls = %v", calls)
	}
}

// benchScript exercises the paths a generated page script hits: loops over
// pooled block frames, closure calls, string building, and builtin calls.
const benchScript = `
var base = "http://cdn.example.com/asset";
var mk = function(i) { return base + "/" + i + ".png"; };
var total = 0;
for (var i = 0; i < 50; i = i + 1) {
  var u = mk(i);
  emit(u);
  total = total + i;
}
emit(total);
`

// BenchmarkMinijsExec measures steady-state execution on a reused
// interpreter: the program is compiled once and every frame the run needs
// comes from the free lists, so the remaining allocations are only the
// strings the script itself builds.
func BenchmarkMinijsExec(b *testing.B) {
	prog, err := Compile(benchScript)
	if err != nil {
		b.Fatal(err)
	}
	in := New()
	in.BindNative("emit", func([]Value) (Value, error) { return Null(), nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ResetOps()
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// allocFreeDefs binds what allocFreeScript calls. A function literal
// allocates its closure and a return boxes its value into an error, so the
// closures are made once, before measurement, and return nothing.
const allocFreeDefs = `
var total = 0;
var acc = function(i) {
  if (i % 3 == 0) { total = total + i * i; } else { total = total - i; }
};
var twice = function(i) { acc(i); acc(i + 1); };
`

// allocFreeScript is loops, closure and native calls, and arithmetic: it
// builds no strings or objects.
const allocFreeScript = `
total = 0;
for (var i = 0; i < 40; i = i + 1) {
  for (var j = 0; j < 3; j = j + 1) {
    twice(i + j);
  }
  emit(total);
}
`

// TestExecAllocFree pins the interpreter loop (step, exec, execBlock,
// execScope and the frame and argument pools) at zero allocations per run of
// a warm compiled program on a reused interpreter. BenchmarkMinijsExec is not
// a gate: its script builds strings.
func TestExecAllocFree(t *testing.T) {
	in := New()
	in.BindNative("emit", func([]Value) (Value, error) { return Null(), nil })
	var prog *Program
	for _, src := range []string{allocFreeDefs, allocFreeScript} {
		p, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Run(p); err != nil {
			t.Fatal(err)
		}
		prog = p
	}
	if avg := testing.AllocsPerRun(200, func() {
		in.ResetOps()
		if err := in.Run(prog); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm run allocates %.2f/op, want 0", avg)
	}
}

// BenchmarkMinijsCompileCached measures the program-cache hit path — what
// every engine after the first pays for a script body it holds as bytes —
// for a small and a large body: an identity hit reads no bytes.
func BenchmarkMinijsCompileCached(b *testing.B) {
	for _, size := range []struct {
		name string
		src  []byte
	}{{"bench", []byte(benchScript)}, {"1MB", scriptBody(1 << 20)}} {
		b.Run(size.name, func(b *testing.B) {
			if _, err := CompileBytes(size.src); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CompileBytes(size.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	prog, err := Parse(`var s = 0; for (var i = 0; i < 1000; i = i + 1) { s = s + i; }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New()
		if err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}
