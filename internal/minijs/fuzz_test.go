package minijs

import (
	"testing"

	"github.com/parcel-go/parcel/internal/webgen"
)

// FuzzMinijs is a differential fuzzer: every input that parses is executed
// by both the closure-compiled interpreter and the map-env reference
// implementation (reference_test.go) under identical deterministic
// builtins, and any divergence in emitted calls, error strings, op counts,
// or final globals fails. This is the strongest guarantee the compile-once
// design offers: the compiler cannot mis-scope an identifier or misplace a
// step, and the frame pools cannot leak a stale binding, without this
// target noticing.
//
// The seed corpus is real generator output (every script body the simulator
// actually executes, including document.write payloads) plus hand-written
// fragments that aim at scoping edge cases the generator never produces.
func FuzzMinijs(f *testing.F) {
	for _, page := range webgen.Generate(webgen.Spec{Seed: 77, NumPages: 3}) {
		for _, obj := range page.Objects {
			if obj.ContentType == "application/javascript" {
				f.Add(string(obj.Body))
			}
		}
	}
	for _, s := range []string{
		``,
		`var x = 1; emit(x);`,
		`var x = 1; if (true) { x = 2; var x = 3; emit(x); } emit(x);`,
		`var v = "g"; var f = function() { emit(v); var v = "l"; emit(v); }; f();`,
		`var f = function(a, a) { return a; }; emit(f(1, 2));`,
		`var mk = function(n) { return function() { return n; }; }; emit(mk(1)(), mk(2)());`,
		`var s = null; for (var i = 0; i < 3; i = i + 1) { var n = i; s = function() { return n; }; } emit(s());`,
		`var r = function(n) { if (n <= 0) { return 0; } return r(n - 1); }; emit(r(50));`,
		`var r = function() { return r(); }; r();`,
		`g = 1; emit(g); var g = 2; emit(g);`,
		`setTimeout(5, function() { emit(rand()); });`,
		`onEvent("click", "id", function(e) { emit(e); });`,
		`document.write("<img src='/x.png'>");`,
		`emit(nosuchvar);`,
		`var x = 3; x();`,
		`while (true) { var x = 1; }`,
		`for (var i = 0; i < 2; i = i + 1) { for (var j = 0; j < 2; j = j + 1) { var k = i + j; emit(k); } }`,
		`emit(1 + "a", 10 % 0, -(-3), !null, "a" < "b" && 1 <= 1);`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8192 {
			return // cap work per input; long inputs add size, not structure
		}
		prog, err := Parse(src)
		if err != nil {
			return
		}
		// A tight budget keeps fuzz throughput high while still reaching
		// every interpreter path; both sides get the identical bound.
		const maxOps = 100_000
		got, want := runSlotted(prog, maxOps), runReference(prog, maxOps)
		if !got.equal(want) {
			t.Fatalf("interpreters diverge on %q:\n slotted: %+v\n reference: %+v", src, got, want)
		}
	})
}
