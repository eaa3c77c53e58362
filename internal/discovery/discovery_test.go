package discovery

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/parcel-go/parcel/internal/cssparse"
	"github.com/parcel-go/parcel/internal/minijs"
	"github.com/parcel-go/parcel/internal/webgen"
)

// logHost records every call the environment makes on its host.
type logHost struct {
	env   *Env
	calls []string
}

func (h *logHost) Request(url string, blocking bool, depth int) {
	h.calls = append(h.calls, fmt.Sprintf("request %s %v %d", url, blocking, depth))
}

func (h *logHost) RunScript(src string, ctx Ctx) {
	h.calls = append(h.calls, fmt.Sprintf("script %+v", ctx))
	prog, err := minijs.Compile(src)
	if err != nil {
		return
	}
	effects, _, _ := h.env.Run(prog, true)
	h.env.Apply(effects, ctx)
}

func (h *logHost) DOMOp() { h.calls = append(h.calls, "dom") }

func (h *logHost) SetTimeout(ms float64, fn *minijs.Closure, ctx Ctx) {
	h.calls = append(h.calls, fmt.Sprintf("timer %v %+v", ms, ctx))
}

func (h *logHost) OnEvent(event, target string, fn *minijs.Closure) {
	h.calls = append(h.calls, "handler "+event+"/"+target)
}

func (h *logHost) Rand(n int) int {
	h.calls = append(h.calls, "rand")
	return n - 1
}

func newLogEnv(fixedRandom bool) (*Env, *logHost) {
	h := &logHost{}
	h.env = NewEnv(minijs.New(), h, fixedRandom, 8)
	return h.env, h
}

var testCtx = Ctx{BaseURL: "http://a.test/dir/page.html", Blocking: true, Depth: 2}

// run executes src in env and applies its effects; it returns the ops
// charged and the error.
func run(t *testing.T, v *Env, src string, memo bool) (int, error) {
	t.Helper()
	prog, err := minijs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	effects, ops, err := v.Run(prog, memo)
	v.Apply(effects, testCtx)
	return ops, err
}

func globals(in *minijs.Interp) []string {
	var out []string
	for _, name := range in.GlobalNames() {
		if v, _ := in.Global(name); v.IsScalar() {
			out = append(out, name+"="+v.Str())
		}
	}
	return out
}

func cacheable(t *testing.T, src string) bool {
	t.Helper()
	prog, err := minijs.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ent := loadOutcome(prog)
	if ent == nil {
		t.Fatalf("no outcome recorded for %q", src)
	}
	if !ent.cacheable && (ent.effects != nil || ent.reads != nil || ent.writes != nil) {
		t.Errorf("non-cacheable outcome of %q pins effects/reads/writes", src)
	}
	return ent.cacheable
}

// TestReplayMatchesExecution: executed, recorded and replayed runs of one
// script leave the host, the op counter and the globals identical.
func TestReplayMatchesExecution(t *testing.T) {
	Reset()
	const src = `var total = 0;
for (var i = 0; i < 50; i = i + 1) { total = total + i; }
fetch("img/a" + total + ".png");
fetchAsync("/abs.png");
fetch("#fragment-only");
document.write("<img src='w.png'><style>b{background:url(bg.png)}</style><script>fetch('inner.png'); document.show('x');</" + "script>");
document.append("x");
fetch("http://b.test/r" + rand(10) + ".gif");`
	type result struct {
		Calls   []string
		Ops     int
		Globals []string
	}
	var results []result
	for _, memo := range []bool{false, true, true} {
		v, h := newLogEnv(true)
		if _, err := run(t, v, src, memo); err != nil {
			t.Fatal(err)
		}
		results = append(results, result{h.calls, v.Interp().Ops(), globals(v.Interp())})
	}
	if len(results[0].Calls) < 8 {
		t.Fatalf("script reached the host %d times: %v", len(results[0].Calls), results[0].Calls)
	}
	for i, name := range []string{"recorded", "replayed"} {
		if !reflect.DeepEqual(results[i+1], results[0]) {
			t.Errorf("%s run differs from plain execution:\n got %+v\nwant %+v", name, results[i+1], results[0])
		}
	}
	if !cacheable(t, src) {
		t.Error("a fetch/write/DOM script under FixedRandom was not cacheable")
	}
	// The write was discovered one level down, its inline script run there.
	want := []string{
		"request http://a.test/dir/img/a1225.png true 3",
		"request http://a.test/abs.png false 3",
		"request http://a.test/dir/w.png true 4",
		"request http://a.test/dir/bg.png true 4",
		"script {BaseURL:http://a.test/dir/page.html Blocking:true Depth:3}",
		"request http://a.test/dir/inner.png true 4",
		"dom",
		"dom",
		"request http://b.test/r4.gif true 3",
	}
	if !reflect.DeepEqual(results[0].Calls, want) {
		t.Errorf("host calls:\n got %q\nwant %q", results[0].Calls, want)
	}
}

// TestReplayValidatesPreState: a recording only replays over the global
// pre-state it was made against, with FixedRandom if it used it, and within
// the op budget.
func TestReplayValidatesPreState(t *testing.T) {
	Reset()
	const src = `fetch("/img/" + tag + ".png"); tag = tag + "x";`
	v, h := newLogEnv(true)
	v.Interp().Bind("tag", minijs.String("a"))
	for i := 0; i < 3; i++ {
		if _, err := run(t, v, src, true); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"request http://a.test/img/a.png true 3",
		"request http://a.test/img/ax.png true 3",
		"request http://a.test/img/axx.png true 3",
	}
	if !reflect.DeepEqual(h.calls, want) {
		t.Errorf("reads were not re-validated:\n got %q\nwant %q", h.calls, want)
	}

	const randSrc = `fetch("/r" + rand(10) + ".gif");`
	v, _ = newLogEnv(true)
	run(t, v, randSrc, true)
	v, h = newLogEnv(false)
	run(t, v, randSrc, true)
	if want := []string{"rand", "request http://a.test/r9.gif true 3"}; !reflect.DeepEqual(h.calls, want) {
		t.Errorf("FixedRandom recording replayed without FixedRandom: %q", h.calls)
	}

	const burnSrc = `var acc = 0; for (var i = 0; i < 1000; i = i + 1) { acc = acc + i; }`
	v, _ = newLogEnv(true)
	ops, _ := run(t, v, burnSrc, true)
	if !v.Interp().TryChargeOps(minijs.DefaultMaxOps - v.Interp().Ops() - ops/2) {
		t.Fatal("could not pre-charge the budget")
	}
	if _, err := run(t, v, burnSrc, true); err == nil {
		t.Error("replay fit a script into a budget its execution does not fit")
	}
}

// TestPoisonedScriptsNeverReplay: what cannot be transplanted into another
// interpreter or host is recorded as non-cacheable.
func TestPoisonedScriptsNeverReplay(t *testing.T) {
	Reset()
	for _, tc := range []struct {
		name, src   string
		fixedRandom bool
	}{
		{"setTimeout", `setTimeout(10, function() { fetch("/late.png"); });`, true},
		{"onEvent", `onEvent("click", "b", function() { document.hide("b"); });`, true},
		{"rand without FixedRandom", `fetch("/r" + rand(10));`, false},
		{"runtime error", `fetch("/before.png"); setTimeout(1);`, true},
		{"closure left in a global", `handler = function() { return 1; };`, true},
		{"closure read from a global", `var r = handler2();`, true},
	} {
		v, _ := newLogEnv(tc.fixedRandom)
		if tc.name == "closure read from a global" {
			run(t, v, `handler2 = function() { return 2; };`, false)
		}
		run(t, v, tc.src, true)
		if cacheable(t, tc.src) {
			t.Errorf("%s: outcome recorded as cacheable", tc.name)
		}
	}
}

// TestWriteDepthBound: document.write chains stop at maxDepth.
func TestWriteDepthBound(t *testing.T) {
	h := &logHost{}
	h.env = NewEnv(minijs.New(), h, true, 3)
	prog, err := minijs.Compile(`document.write("<img src='/deep.png'>");`)
	if err != nil {
		t.Fatal(err)
	}
	effects, _, _ := h.env.Run(prog, false)
	h.env.Apply(effects, Ctx{BaseURL: "http://a.test/", Depth: 1})
	h.env.Apply(effects, Ctx{BaseURL: "http://a.test/", Depth: 2})
	if want := []string{"request http://a.test/deep.png false 3"}; !reflect.DeepEqual(h.calls, want) {
		t.Errorf("got %q, want %q", h.calls, want)
	}
}

// TestArtifactsAreSharedPureFunctions: one tree per distinct body, the same
// refs as the parsers give, and nothing but recomputation after Reset.
func TestArtifactsAreSharedPureFunctions(t *testing.T) {
	Reset()
	body := []byte(`<html><head><style>b{background:url(/bg.png)}</style></head><body><img src="a.png"><script>fetch("x")</script></body></html>`)
	root1, nodes1, err := HTML(body)
	if err != nil || len(nodes1) == 0 {
		t.Fatalf("HTML: %v, %d nodes", err, len(nodes1))
	}
	if root2, _, _ := HTML(append([]byte(nil), body...)); root2 != root1 {
		t.Error("equal bodies parsed into two trees")
	}
	if root3, _ := htmlString(string(body)); root3 != root1 {
		t.Error("string and byte lookups of one body do not share a tree")
	}
	Reset()
	if root4, nodes4, _ := HTML(body); root4 == root1 || len(nodes4) != len(nodes1) {
		t.Error("Reset did not drop the tree, or the re-parse differs")
	}

	const css = `@import "reset.css"; body { background: url(img/bg.png); }`
	const base = "http://a.test/css/main.css"
	if got, want := CSSRefs([]byte(css), base), cssparse.Refs(css, base); !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Errorf("CSSRefs = %v, cssparse.Refs = %v", got, want)
	}
	if got, want := AssetURLs(css, base), cssparse.AssetURLs(css, base); !reflect.DeepEqual(got, want) || len(got) == 0 {
		t.Errorf("AssetURLs = %v, cssparse.AssetURLs = %v", got, want)
	}
}

// TestOutcomeEpochBound: the memo never holds more than maxOutcomes entries.
func TestOutcomeEpochBound(t *testing.T) {
	Reset()
	for i := 0; i < maxOutcomes+10; i++ {
		storeOutcome(&minijs.Program{}, &outcome{})
	}
	outcomes.RLock()
	n := len(outcomes.m)
	outcomes.RUnlock()
	if n != 10 {
		t.Errorf("memo holds %d entries after %d stores, want 10 (one epoch dropped)", n, maxOutcomes+10)
	}
	Reset()
}

func TestFixedRandValueMatchesWebgen(t *testing.T) {
	if FixedRandValue != webgen.FixedRandValue {
		t.Fatalf("FixedRandValue = %d, webgen.FixedRandValue = %d: generated pages would miss their rewritten URL", FixedRandValue, webgen.FixedRandValue)
	}
}
