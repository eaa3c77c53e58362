// Package browser implements the browsing engine shared by every scheme in
// the reproduction: the traditional client browser (DIR), the PARCEL proxy's
// headless discovery browser, the PARCEL client's renderer, and the cloud
// browser's remote engine. It drives the fetch → parse → execute loop of
// Figure 1: HTML is parsed into a DOM, stylesheets and scripts are fetched
// and processed, scripts discover further objects (including post-onload
// async loads via timers), and interaction handlers are registered for local
// execution.
//
// Rendering to pixels is out of scope (it does not affect OLT/TLT or radio
// energy; the paper reports a comparable, small rendering time for both
// schemes, §7.1); CPU costs of parsing and script execution are modelled
// explicitly and feed the device energy accounting.
package browser

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/minijs"
)

// Result is a fetched object as seen by the engine.
type Result struct {
	URL         string
	Status      int
	ContentType string
	Body        []byte
	At          time.Duration
}

// Fetcher retrieves objects asynchronously. Implementations back this with
// the cellular HTTP client (DIR), the proxy's wired HTTP client (PARCEL
// proxy) or the local bundle store (PARCEL client).
type Fetcher interface {
	Fetch(url string, cb func(Result))
}

// CPUModel prices the engine's processing work.
type CPUModel struct {
	HTMLParsePerKB   time.Duration // DOM build cost per KB of markup
	CSSParsePerKB    time.Duration
	ImageDecodePerKB time.Duration
	JSOp             time.Duration // per interpreter operation
}

// MobileCPU approximates a 2014 smartphone ("the relative lack of power of
// mobile browsers", §3).
func MobileCPU() CPUModel {
	return CPUModel{
		HTMLParsePerKB:   3 * time.Millisecond,
		CSSParsePerKB:    time.Millisecond,
		ImageDecodePerKB: 150 * time.Microsecond,
		JSOp:             8 * time.Microsecond,
	}
}

// DesktopCPU approximates a wire-line desktop browser (the Figure 3
// comparison point).
func DesktopCPU() CPUModel {
	return CPUModel{
		HTMLParsePerKB:   600 * time.Microsecond,
		CSSParsePerKB:    200 * time.Microsecond,
		ImageDecodePerKB: 30 * time.Microsecond,
		JSOp:             1500 * time.Nanosecond,
	}
}

// ProxyCPU approximates the well-provisioned proxy server (§4.3).
func ProxyCPU() CPUModel {
	return CPUModel{
		HTMLParsePerKB:   200 * time.Microsecond,
		CSSParsePerKB:    60 * time.Microsecond,
		ImageDecodePerKB: 0, // the proxy does not decode images
		JSOp:             500 * time.Nanosecond,
	}
}

// Events are the engine's observable page milestones.
type Events struct {
	// OnLoad fires when every synchronous (onload-blocking) object has been
	// fetched and processed — the browser Onload event (§2.1).
	OnLoad func(at time.Duration)
	// Complete fires when no fetches, timers or processing remain: every
	// object the page will ever request without user interaction has loaded
	// (the TLT point).
	Complete func(at time.Duration)
	// ObjectLoaded fires per arrived object.
	ObjectLoaded func(url string, size int, at time.Duration)
	// FetchIssued fires when the engine asks its Fetcher for a URL.
	FetchIssued func(url string, blocking bool)
}

// Options tune engine behaviour.
type Options struct {
	CPU    CPUModel
	Events Events
	// FixedRandom, when true, makes the script builtin rand() return a
	// constant — the web-page-replay rewrite of §7.3 that keeps randomized
	// URLs identical across runs (and across proxy/client in PARCEL).
	FixedRandom bool
	// MaxDepth bounds recursive discovery (iframes, document.write chains).
	MaxDepth int
	// ExecCache routes scripts through the process-wide exec-outcome memo
	// (internal/discovery). Replay is validated to be bit-identical to
	// execution; the batched sweep engine enables it, private-topology
	// runs (scenario.Build) leave it off.
	ExecCache bool
	// JSPools, when non-nil, supplies the interpreter's frame and
	// call-argument free lists — shared across every engine of a
	// simulation batch.
	JSPools *minijs.Pools
}

// Engine loads one page.
type Engine struct {
	sim   *eventsim.Simulator
	fetch Fetcher
	opt   Options
	env   *discovery.Env // script environment; the engine is its Host

	baseURL string
	dom     *htmlparse.Node

	requested map[string]bool
	loaded    map[string]bool
	results   map[string]Result
	waiters   map[string][]func(Result)

	pendingBlocking int // gates OnLoad
	pendingTotal    int // gates Complete
	onloadFired     bool
	completeFired   bool
	loadStarted     bool

	onloadAt   time.Duration
	completeAt time.Duration

	lastBlockingArrival time.Duration // latest arrival among onload objects
	onloadNetAt         time.Duration // frozen at onload: the paper's trace OLT

	cpuBusy   time.Duration // single-core serialization point
	cpuActive time.Duration // total active CPU time (energy accounting)

	handlers map[string][]*minijs.Closure // "event/target" -> handlers

	// DOMOps counts script-driven DOM mutations (instrumentation).
	DOMOps int
	// TimersSet counts setTimeout registrations.
	TimersSet int
	// JSErrors collects script runtime errors (pages tolerate them, like
	// real browsers do).
	JSErrors []error
}

// New builds an engine on sim using fetch for object retrieval.
func New(sim *eventsim.Simulator, fetch Fetcher, opt Options) *Engine {
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 8
	}
	e := &Engine{
		sim:       sim,
		fetch:     fetch,
		opt:       opt,
		requested: make(map[string]bool),
		loaded:    make(map[string]bool),
		results:   make(map[string]Result),
		waiters:   make(map[string][]func(Result)),
		handlers:  make(map[string][]*minijs.Closure),
	}
	e.env = discovery.NewEnv(minijs.NewWithPools(opt.JSPools), engineHost{e}, opt.FixedRandom, opt.MaxDepth)
	return e
}

// OnloadAt returns the OnLoad time (valid once fired).
func (e *Engine) OnloadAt() (time.Duration, bool) { return e.onloadAt, e.onloadFired }

// OnloadNetAt returns the network part of the onload time: the arrival time
// of the last object required to generate the onload event — the paper's
// trace-derived OLT ("time between the first SYN and the last ACK for all
// objects required to generate the onload event", §7.1), which excludes any
// trailing client processing.
func (e *Engine) OnloadNetAt() (time.Duration, bool) { return e.onloadNetAt, e.onloadFired }

// CompleteAt returns the page-complete time (valid once fired).
func (e *Engine) CompleteAt() (time.Duration, bool) { return e.completeAt, e.completeFired }

// CPUActive returns total modelled CPU-active time so far.
func (e *Engine) CPUActive() time.Duration { return e.cpuActive }

// RequestedURLs returns every URL the engine asked its fetcher for.
func (e *Engine) RequestedURLs() []string {
	out := make([]string, 0, len(e.requested))
	for u := range e.requested {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// NumRequested returns the number of distinct objects requested.
func (e *Engine) NumRequested() int { return len(e.requested) }

// Requested reports whether the engine has requested url.
func (e *Engine) Requested(url string) bool { return e.requested[url] }

// DOM returns the document tree (nil before the main document parses).
func (e *Engine) DOM() *htmlparse.Node { return e.dom }

// Load starts loading the page at url. It may be called once per Engine.
func (e *Engine) Load(url string) {
	if e.loadStarted {
		panic("browser: Load called twice")
	}
	e.loadStarted = true
	e.baseURL = url
	e.requestObject(url, true, 0)
}

// requestObject issues a deduplicated fetch; the response is dispatched by
// content type (HTML, CSS, script, or opaque asset).
func (e *Engine) requestObject(url string, blocking bool, depth int) {
	if e.requested[url] {
		return
	}
	e.fetchFresh(url, blocking, func(r Result) {
		e.dispatch(r, blocking, depth)
	})
}

// fetchFresh performs the first fetch of a URL, accounting one pending unit
// that onResult must eventually balance (dispatch and the walker paths do).
// Duplicate interest in the same URL goes through waitFor.
func (e *Engine) fetchFresh(url string, blocking bool, onResult func(Result)) {
	e.requested[url] = true
	e.pendingTotal++
	if blocking {
		e.pendingBlocking++
	}
	if e.opt.Events.FetchIssued != nil {
		e.opt.Events.FetchIssued(url, blocking)
	}
	e.fetch.Fetch(url, func(r Result) {
		e.loaded[url] = true
		e.results[url] = r
		if blocking && !e.onloadFired && r.At > e.lastBlockingArrival {
			e.lastBlockingArrival = r.At
		}
		if e.opt.Events.ObjectLoaded != nil {
			e.opt.Events.ObjectLoaded(url, len(r.Body), r.At)
		}
		onResult(r)
		if ws := e.waiters[url]; len(ws) > 0 {
			delete(e.waiters, url)
			for _, w := range ws {
				w(r)
			}
		}
	})
}

// waitFor delivers the result of an already-requested URL: immediately if it
// arrived, or when it lands. It carries no pending accounting of its own.
func (e *Engine) waitFor(url string, cb func(Result)) {
	if r, ok := e.results[url]; ok {
		cb(r)
		return
	}
	e.waiters[url] = append(e.waiters[url], cb)
}

// dispatch processes a fetched object and eventually calls finish exactly
// once for it.
func (e *Engine) dispatch(r Result, blocking bool, depth int) {
	if r.Status >= 400 {
		e.finish(blocking)
		return
	}
	ct := r.ContentType
	switch {
	case strings.Contains(ct, "html"):
		e.processHTML(r, blocking, depth)
	case strings.Contains(ct, "css"):
		e.processCSS(r, blocking, depth)
	case strings.Contains(ct, "javascript"):
		e.execScriptBytesThen(r.Body, r.URL, blocking, depth, nil)
		e.finish(blocking)
	default:
		cost := perKB(e.opt.CPU.ImageDecodePerKB, len(r.Body))
		if cost == 0 {
			e.finish(blocking)
			return
		}
		e.task(cost, func() { e.finish(blocking) })
	}
}

// finish marks one pending unit done and fires milestones when counts reach
// zero.
func (e *Engine) finish(blocking bool) {
	e.pendingTotal--
	if blocking {
		e.pendingBlocking--
		if e.pendingBlocking == 0 && !e.onloadFired {
			e.onloadFired = true
			e.onloadAt = e.sim.Now()
			e.onloadNetAt = e.lastBlockingArrival
			if e.opt.Events.OnLoad != nil {
				e.opt.Events.OnLoad(e.onloadAt)
			}
		}
	}
	if e.pendingTotal == 0 && e.onloadFired && !e.completeFired {
		e.completeFired = true
		e.completeAt = e.sim.Now()
		if e.opt.Events.Complete != nil {
			e.opt.Events.Complete(e.completeAt)
		}
	}
}

// task serializes processing work on the engine's single CPU core: it runs
// apply after cost of CPU time, queued behind earlier tasks.
func (e *Engine) task(cost time.Duration, apply func()) {
	start := e.sim.Now()
	if start < e.cpuBusy {
		start = e.cpuBusy
	}
	end := start + cost
	e.cpuBusy = end
	e.cpuActive += cost
	e.sim.ScheduleAt(end, apply)
}

func perKB(d time.Duration, bytes int) time.Duration {
	return time.Duration(float64(d) * float64(bytes) / 1024)
}

// processHTML parses a document or iframe and walks it in document order
// with parser-blocking script semantics: when the walker reaches a
// synchronous <script>, discovery of everything after it waits until the
// script is fetched and executed — the behaviour behind the "long flat
// segments" the paper observes in DIR's download timeline (Figure 6a). In
// PARCEL the same walk rarely stalls, because pushed scripts are already in
// the client's local store when the parser reaches them.
func (e *Engine) processHTML(r Result, blocking bool, depth int) {
	cost := perKB(e.opt.CPU.HTMLParsePerKB, len(r.Body))
	e.task(cost, func() {
		// The parsed tree and its element list come from the process-wide
		// artifact cache: every scheme and round loading this document
		// shares one immutable DOM. The parse cost above is modelled from
		// the byte length either way.
		root, nodes, err := discovery.HTML(r.Body)
		if err != nil {
			// Treat unparseable HTML like an empty page (browser resilience).
			e.finish(blocking)
			return
		}
		if e.dom == nil {
			e.dom = root
		}
		if depth >= e.opt.MaxDepth {
			e.finish(blocking)
			return
		}
		w := &docWalker{
			e: e, baseURL: r.URL, blocking: blocking, depth: depth,
			nodes: nodes,
		}
		// The walk inherits this document's pending unit and finishes it.
		w.resume()
	})
}

// docWalker walks a parsed document in order, suspending at synchronous
// scripts.
type docWalker struct {
	e        *Engine
	baseURL  string
	blocking bool
	depth    int
	nodes    []*htmlparse.Node
	pos      int
}

func (w *docWalker) resume() {
	e := w.e
	for w.pos < len(w.nodes) {
		n := w.nodes[w.pos]
		w.pos++
		switch n.Tag {
		case "link":
			if strings.EqualFold(n.Attr("rel"), "stylesheet") {
				if u := htmlparse.ResolveURL(w.baseURL, n.Attr("href")); u != "" {
					e.requestObject(u, w.blocking, w.depth+1)
				}
			}
		case "img", "iframe", "video", "audio", "embed", "source":
			if u := htmlparse.ResolveURL(w.baseURL, n.Attr("src")); u != "" {
				e.requestObject(u, w.blocking, w.depth+1)
			}
		case "input":
			if strings.EqualFold(n.Attr("type"), "image") {
				if u := htmlparse.ResolveURL(w.baseURL, n.Attr("src")); u != "" {
					e.requestObject(u, w.blocking, w.depth+1)
				}
			}
		case "style":
			for _, u := range discovery.AssetURLs(n.Text, w.baseURL) {
				e.requestObject(u, w.blocking, w.depth+1)
			}
		case "script":
			src := n.Attr("src")
			if src != "" {
				u := htmlparse.ResolveURL(w.baseURL, src)
				if u == "" {
					continue
				}
				if n.HasAttr("async") || n.HasAttr("defer") {
					e.requestObject(u, false, w.depth+1)
					continue
				}
				// Parser-blocking external script: suspend the walk.
				w.awaitScript(u)
				return
			}
			if strings.TrimSpace(n.Text) != "" {
				// Inline scripts also block the parser while they execute.
				e.execScriptThen(n.Text, w.baseURL, w.blocking, w.depth, w.resume)
				return
			}
		}
	}
	e.finish(w.blocking)
}

// awaitScript fetches (or joins the in-flight fetch of) a synchronous
// script, executes it, then resumes the walk.
func (w *docWalker) awaitScript(url string) {
	e := w.e
	onArrive := func(r Result) {
		if r.Status < 400 && strings.Contains(r.ContentType, "javascript") {
			e.execScriptBytesThen(r.Body, r.URL, w.blocking, w.depth, w.resume)
			return
		}
		w.resume()
	}
	if e.requested[url] {
		e.waitFor(url, onArrive)
		return
	}
	e.fetchFresh(url, w.blocking, func(r Result) {
		// Balance fetchFresh's pending unit; execution and the continued
		// walk are covered by the walk's own pending unit.
		e.finish(w.blocking)
		onArrive(r)
	})
}

func (e *Engine) processCSS(r Result, blocking bool, depth int) {
	cost := perKB(e.opt.CPU.CSSParsePerKB, len(r.Body))
	e.task(cost, func() {
		if depth < e.opt.MaxDepth {
			for _, ref := range discovery.CSSRefs(r.Body, r.URL) {
				e.requestObject(ref.URL, blocking, depth+1)
			}
		}
		e.finish(blocking)
	})
}

// execScriptThen runs a script body: the interpreter executes immediately
// (its side effects are buffered), and the effects are applied after the
// modelled CPU cost, serialized on the engine core; then, if non-nil, is the
// continuation invoked after they apply (the parser-blocking resume point).
// Scripts go through the memoized minijs.Compile, so a body executed by any
// engine in the process — proxy and client in one PARCEL load, every scheme
// and round in a sweep — is lexed, parsed, and slot-resolved exactly once.
func (e *Engine) execScriptThen(src, baseURL string, blocking bool, depth int, then func()) {
	prog, err := minijs.Compile(src)
	e.execCompiledThen(prog, err, baseURL, blocking, depth, then)
}

// execScriptBytesThen is execScriptThen for bodies still held as []byte; on
// a program-cache hit it skips the string conversion entirely.
func (e *Engine) execScriptBytesThen(src []byte, baseURL string, blocking bool, depth int, then func()) {
	prog, err := minijs.CompileBytes(src)
	e.execCompiledThen(prog, err, baseURL, blocking, depth, then)
}

func (e *Engine) execCompiledThen(prog *minijs.Program, err error, baseURL string, blocking bool, depth int, then func()) {
	e.pendingTotal++ // execution itself defers completion
	if blocking {
		e.pendingBlocking++
	}
	if err != nil {
		e.JSErrors = append(e.JSErrors, fmt.Errorf("parse %s: %w", baseURL, err))
		e.finish(blocking)
		if then != nil {
			then()
		}
		return
	}
	effects, ops, err := e.env.Run(prog, e.opt.ExecCache)
	e.applyAfter(discovery.Ctx{BaseURL: baseURL, Blocking: blocking, Depth: depth}, effects, ops, err, then)
}

// callClosure runs a timer or handler closure; like execCompiledThen the
// caller's pending unit is finished when the effects apply.
func (e *Engine) callClosure(fn *minijs.Closure, ctx discovery.Ctx) {
	effects, ops, err := e.env.Call(fn)
	e.applyAfter(ctx, effects, ops, err, nil)
}

// applyAfter delivers an executed (or replayed) script's buffered effects
// after its modelled CPU cost, then finishes the pending unit the caller
// accounted for the execution (with ctx.Blocking).
func (e *Engine) applyAfter(ctx discovery.Ctx, effects []discovery.Effect, ops int, err error, then func()) {
	if err != nil {
		e.JSErrors = append(e.JSErrors, err)
	}
	e.task(time.Duration(ops)*e.opt.CPU.JSOp, func() {
		e.env.Apply(effects, ctx)
		e.finish(ctx.Blocking)
		if then != nil {
			then()
		}
	})
}

// engineHost is the Engine as discovery.Host: where script effects land.
type engineHost struct{ e *Engine }

func (h engineHost) Request(url string, blocking bool, depth int) {
	h.e.requestObject(url, blocking, depth)
}

func (h engineHost) RunScript(src string, ctx discovery.Ctx) {
	h.e.execScriptThen(src, ctx.BaseURL, ctx.Blocking, ctx.Depth, nil)
}

func (h engineHost) DOMOp() { h.e.DOMOps++ }

func (h engineHost) SetTimeout(ms float64, fn *minijs.Closure, ctx discovery.Ctx) {
	e := h.e
	e.TimersSet++
	e.pendingTotal++
	ctx.Blocking = false
	//parcelvet:allow noclosure(one allocation per page-level JS timer, not per packet; the continuation needs the full script context and closure value, which have no pooled carrier)
	e.sim.Schedule(time.Duration(ms)*time.Millisecond, func() { e.callClosure(fn, ctx) })
}

func (h engineHost) OnEvent(event, target string, fn *minijs.Closure) {
	key := event + "/" + target
	h.e.handlers[key] = append(h.e.handlers[key], fn)
}

func (h engineHost) Rand(n int) int { return h.e.sim.Rand().Intn(n) }

// FireEvent delivers a user interaction (e.g. a button click, §8.2) to the
// page's registered handlers. Handlers execute locally in this engine; any
// fetches they perform are non-blocking. It returns the number of handlers
// invoked.
func (e *Engine) FireEvent(event, target string) int {
	hs := e.handlers[event+"/"+target]
	for _, h := range hs {
		e.pendingTotal++ // balanced when the handler's effects apply
		e.callClosure(h, discovery.Ctx{BaseURL: e.baseURL})
	}
	return len(hs)
}

// Handlers returns the number of handlers registered for event/target.
func (e *Engine) Handlers(event, target string) int {
	return len(e.handlers[event+"/"+target])
}
