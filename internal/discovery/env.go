package discovery

import (
	"fmt"

	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
)

// FixedRandValue is what rand() returns under FixedRandom — the
// web-page-replay rewrite (§7.3): a constant replaces the random so proxy
// and client derive identical URLs.
const FixedRandValue = 4

// Ctx is the context a script runs in: what its relative URLs resolve
// against, whether its fetches gate onload, and how deep in the discovery
// chain it sits.
type Ctx struct {
	BaseURL  string
	Blocking bool // false inside timers and handlers
	Depth    int
}

// Host is the engine side of the script environment: what a script's effects
// are applied against. Apply and Fragment are the only callers of everything
// but Rand, so a host sees the same calls whether the script executed or its
// outcome was replayed; a script that reaches Rand is never replayed.
type Host interface {
	// Request asks for the object at an absolute URL.
	Request(url string, blocking bool, depth int)
	// RunScript executes an inline script found in injected markup.
	RunScript(src string, ctx Ctx)
	// DOMOp accounts one script-driven DOM mutation.
	DOMOp()
	// SetTimeout arms fn to run after ms of page time. The host calls it
	// back through Env.Call with ctx.Blocking cleared (fetches inside timers
	// are post-onload/async, like real async JS, §2.1).
	SetTimeout(ms float64, fn *minijs.Closure, ctx Ctx)
	// OnEvent registers an interaction handler.
	OnEvent(event, target string, fn *minijs.Closure)
	// Rand draws an int in [0,n) from the host's seeded source. It is only
	// called with FixedRandom off.
	Rand(n int) int
}

// effectKind enumerates the side effects scripts buffer. Fetch, write and
// DOM are the recordable vocabulary; timers and handlers carry an
// interpreter-bound closure and make their script non-cacheable.
type effectKind int

const (
	effectFetch   effectKind = iota // s = raw URL, respect = honor ctx.Blocking
	effectWrite                     // s = injected markup
	effectDOM                       // one costed DOM mutation
	effectTimer                     // ms, fn
	effectHandler                   // s = event, t = target, fn
)

// Effect is one buffered script side effect, stored context-free (the raw
// fetch URL, the written markup) and resolved against the applying script
// context, so one recording serves every base URL / blocking / depth
// combination.
type Effect struct {
	kind    effectKind
	respect bool
	s, t    string
	ms      float64
	fn      *minijs.Closure
}

// Env is one page's script environment: an interpreter with the host
// builtins bound, buffering every effect a script has until the host applies
// them. It is not safe for concurrent use; a host running scripts from
// several goroutines serializes Run and Call.
//
//	fetch(url)              fetch an object (blocks onload in parse context)
//	fetchAsync(url)         fetch without blocking onload
//	setTimeout(ms, fn)      run fn after ms of page time
//	onEvent(evt, id, fn)    register an interaction handler (runs locally)
//	rand(n)                 random int in [0,n) — constant under FixedRandom
//	log(msg)                no-op diagnostic
//	document.write(html)    inject markup; its resources are discovered
//	document.append(id)     DOM mutation (costed, no discovery)
//	document.show(id) / document.hide(id)
type Env struct {
	in          *minijs.Interp
	host        Host
	fixedRandom bool
	maxDepth    int

	effects []Effect  // buffered by the script now running
	rec     *recorder // non-nil while the outcome memo records a script
}

// NewEnv binds the builtins into in. maxDepth bounds document.write chains.
func NewEnv(in *minijs.Interp, host Host, fixedRandom bool, maxDepth int) *Env {
	v := &Env{in: in, host: host, fixedRandom: fixedRandom, maxDepth: maxDepth}
	v.bind()
	return v
}

// Interp returns the interpreter the environment is bound into.
func (v *Env) Interp() *minijs.Interp { return v.in }

func (v *Env) bind() {
	in := v.in
	in.BindNative("fetch", func(args []minijs.Value) (minijs.Value, error) {
		return v.builtinFetch(args, true)
	})
	in.BindNative("fetchAsync", func(args []minijs.Value) (minijs.Value, error) {
		return v.builtinFetch(args, false)
	})
	in.BindNative("setTimeout", func(args []minijs.Value) (minijs.Value, error) {
		if len(args) < 2 {
			return minijs.Null(), fmt.Errorf("setTimeout needs (ms, fn)")
		}
		fn := args[1].Closure()
		if fn == nil {
			return minijs.Null(), fmt.Errorf("setTimeout second arg must be a function")
		}
		v.poison() // timer captures an interpreter-bound closure
		v.effects = append(v.effects, Effect{kind: effectTimer, ms: args[0].Num(), fn: fn})
		return minijs.Null(), nil
	})
	in.BindNative("onEvent", func(args []minijs.Value) (minijs.Value, error) {
		if len(args) < 3 {
			return minijs.Null(), fmt.Errorf("onEvent needs (event, target, fn)")
		}
		fn := args[2].Closure()
		if fn == nil {
			return minijs.Null(), fmt.Errorf("onEvent third arg must be a function")
		}
		v.poison() // handler captures an interpreter-bound closure
		v.effects = append(v.effects, Effect{kind: effectHandler, s: args[0].Str(), t: args[1].Str(), fn: fn})
		return minijs.Null(), nil
	})
	in.BindNative("rand", func(args []minijs.Value) (minijs.Value, error) {
		n := 1 << 20
		if len(args) > 0 && args[0].Num() > 0 {
			n = int(args[0].Num())
		}
		if v.fixedRandom {
			if v.rec != nil {
				v.rec.needsFixedRandom = true
			}
			return minijs.Number(FixedRandValue), nil
		}
		v.poison() // consumes the host's RNG stream
		return minijs.Number(float64(v.host.Rand(n))), nil
	})
	in.BindNative("log", func([]minijs.Value) (minijs.Value, error) {
		return minijs.Null(), nil
	})
	domOp := minijs.NativeValue(func([]minijs.Value) (minijs.Value, error) {
		v.effects = append(v.effects, Effect{kind: effectDOM})
		return minijs.Null(), nil
	})
	in.Bind("document", minijs.Namespace(map[string]minijs.Value{
		"write": minijs.NativeValue(func(args []minijs.Value) (minijs.Value, error) {
			if len(args) >= 1 {
				v.effects = append(v.effects, Effect{kind: effectWrite, s: args[0].Str()})
			}
			return minijs.Null(), nil
		}),
		"append": domOp, "remove": domOp, "show": domOp, "hide": domOp,
	}))
}

func (v *Env) builtinFetch(args []minijs.Value, respectCtx bool) (minijs.Value, error) {
	if len(args) < 1 {
		return minijs.Null(), fmt.Errorf("fetch needs a URL")
	}
	v.effects = append(v.effects, Effect{kind: effectFetch, s: args[0].Str(), respect: respectCtx})
	return minijs.Null(), nil
}

// poison marks the script being recorded (if any) non-cacheable.
func (v *Env) poison() {
	if v.rec != nil {
		v.rec.cacheable = false
	}
}

// Run executes prog — through the exec-outcome memo when memo is set — and
// returns the effects it buffered, the interpreter ops it cost and its
// runtime error. Nothing has reached the host yet: the caller hands the
// effects to Apply when its own timeline says the script's CPU time has
// passed, so executed and replayed scripts touch the host identically. The
// effects of a script that failed part-way still apply, as a browser's do.
func (v *Env) Run(prog *minijs.Program, memo bool) (effects []Effect, ops int, err error) {
	if memo {
		ent := loadOutcome(prog)
		switch {
		case ent == nil:
			counters.recorded.Add(1)
			return v.record(prog)
		case !ent.cacheable:
			counters.nonCacheable.Add(1)
		case v.replay(ent):
			counters.replayed.Add(1)
			return ent.effects, ent.ops, nil
		default:
			counters.misses.Add(1)
		}
	}
	before := v.in.Ops()
	err = v.in.Run(prog)
	return v.takeEffects(), v.in.Ops() - before, err
}

// Call invokes a timer or handler closure; closures are interpreter-bound,
// so they always execute.
func (v *Env) Call(fn *minijs.Closure) (effects []Effect, ops int, err error) {
	before := v.in.Ops()
	_, err = v.in.CallClosure(fn)
	return v.takeEffects(), v.in.Ops() - before, err
}

func (v *Env) takeEffects() []Effect {
	effects := v.effects
	v.effects = nil
	return effects
}

// Apply delivers a finished script's effects to the host, in the order the
// script issued them, resolved against ctx. The slice may be a shared
// recording; Apply only reads it.
func (v *Env) Apply(effects []Effect, ctx Ctx) {
	for i := range effects {
		ef := &effects[i]
		switch ef.kind {
		case effectFetch:
			if url := htmlparse.ResolveURL(ctx.BaseURL, ef.s); url != "" {
				v.host.Request(url, ef.respect && ctx.Blocking, ctx.Depth+1)
			}
		case effectWrite:
			// Dynamically injected markup does not re-enter a host's
			// parser-blocking walk: it is flat-discovered one level down.
			if ctx.Depth+1 >= v.maxDepth {
				continue
			}
			if root, err := htmlString(ef.s); err == nil {
				Fragment(v.host, root, Ctx{BaseURL: ctx.BaseURL, Blocking: ctx.Blocking, Depth: ctx.Depth + 1})
			}
		case effectDOM:
			v.host.DOMOp()
		case effectTimer:
			v.host.SetTimeout(ef.ms, ef.fn, ctx)
		case effectHandler:
			v.host.OnEvent(ef.s, ef.t, ef.fn)
		}
	}
}

// Fragment flat-discovers a parsed tree: every external resource and
// inline-style asset is requested one level below ctx, then every inline
// script runs in ctx.
func Fragment(h Host, root *htmlparse.Node, ctx Ctx) {
	for _, res := range htmlparse.Resources(root, ctx.BaseURL) {
		h.Request(res.URL, ctx.Blocking && !res.Async, ctx.Depth+1)
	}
	for _, css := range htmlparse.InlineStyles(root) {
		for _, u := range AssetURLs(css, ctx.BaseURL) {
			h.Request(u, ctx.Blocking, ctx.Depth+1)
		}
	}
	for _, script := range htmlparse.InlineScripts(root) {
		h.RunScript(script, ctx)
	}
}
