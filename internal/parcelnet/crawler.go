package parcelnet

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/minijs"
)

// Object is one crawled object.
type Object struct {
	URL         string
	ContentType string
	Status      int
	Body        []byte
}

// fetchFunc retrieves one logical URL. Sessions inject it so the crawler is
// agnostic to where bytes come from: a plain origin fetcher, or the shared
// cross-session object cache with single-flight de-duplication in front.
type fetchFunc func(url string) (body []byte, contentType string, status int, err error)

// crawler performs the proxy-side object identification of §4.2 over real
// HTTP, fetching concurrently on the proxy's fast path. What it does with a
// fetched object is internal/discovery's: cached trees and refs for HTML and
// CSS, and page JavaScript run in the shared script environment through the
// exec-outcome memo — the crawler is that environment's goroutine-and-timer
// host (discovery.Host), as browser.Engine is its virtual-clock one.
type crawler struct {
	fetch    fetchFunc
	onObject func(Object) // called once per fetched object
	onLoad   func()       // all onload-blocking work done
	// onSettled is called each time, after onload, the last fetch or script
	// in flight finishes; page timers may still be armed (see quiescent).
	onSettled func()

	// afterFunc arms page timers and now reads the clock they run on
	// (time.AfterFunc and time.Now; the equivalence, alloc-budget and
	// quiescence tests substitute their own clock). noMemo runs every script
	// for real: the reference arm the tests compare the memoised crawl
	// against.
	afterFunc func(time.Duration, func()) stopper
	now       func() time.Time
	noMemo    bool

	mu              sync.Mutex
	requested       map[string]crawlRequest
	pendingBlocking int
	inflight        int // fetches and scripts running, fired timers included
	onloadFired     bool
	stopped         bool
	timers          map[stopper]time.Time // armed page timers and when each is due

	// jsMu serializes the page's one interpreter: scripts arrive from a
	// goroutine per fetched object and from timers.
	jsMu sync.Mutex
	env  *discovery.Env
	rng  *rand.Rand

	// Errors collects tolerated page errors.
	errMu  sync.Mutex
	Errors []error
}

// crawlRequest is how a URL was first discovered.
type crawlRequest struct {
	blocking bool
	depth    int
}

// stopper is the part of *time.Timer the crawl uses.
type stopper interface{ Stop() bool }

// crawlMaxDepth bounds recursive discovery (iframes, document.write chains).
const crawlMaxDepth = 8

func newCrawler(fetch fetchFunc, fixedRandom bool, onObject func(Object), onLoad, onSettled func()) *crawler {
	c := &crawler{
		fetch:     fetch,
		onObject:  onObject,
		onLoad:    onLoad,
		onSettled: onSettled,
		afterFunc: func(d time.Duration, f func()) stopper { return time.AfterFunc(d, f) },
		now:       time.Now,
		requested: make(map[string]crawlRequest),
		timers:    make(map[stopper]time.Time),
		rng:       rand.New(rand.NewSource(discovery.FixedRandValue)),
	}
	c.env = discovery.NewEnv(minijs.New(), c, fixedRandom, crawlMaxDepth)
	return c
}

// start crawls from the main URL.
func (c *crawler) start(url string) { c.Request(url, true, 0) }

// stop ends the crawl when its session does: pending page timers are
// stopped, Request becomes a no-op, fetches already in flight are dropped on
// arrival, and no callback fires afterwards. It is idempotent.
func (c *crawler) stop() {
	c.mu.Lock()
	c.stopped = true
	for t := range c.timers {
		t.Stop()
	}
	c.timers = nil
	c.mu.Unlock()
}

func (c *crawler) addError(err error) {
	c.errMu.Lock()
	c.Errors = append(c.Errors, err)
	c.errMu.Unlock()
}

// Request fetches url once; blocking objects gate the onload callback.
func (c *crawler) Request(url string, blocking bool, depth int) {
	c.mu.Lock()
	if _, dup := c.requested[url]; dup || c.stopped || depth > crawlMaxDepth {
		c.mu.Unlock()
		return
	}
	c.requested[url] = crawlRequest{blocking, depth}
	c.inflight++
	if blocking {
		c.pendingBlocking++
	}
	c.mu.Unlock()

	go func() {
		body, ct, status, err := c.fetch(url)
		obj := Object{URL: url, ContentType: ct, Status: status, Body: body}
		if err != nil {
			c.addError(err)
			obj.Status = 502
		}
		if c.isStopped() {
			return
		}
		c.onObject(obj)
		if obj.Status < 400 {
			c.process(obj, blocking, depth)
		}
		c.finish(blocking)
	}()
}

func (c *crawler) isStopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

func (c *crawler) finish(blocking bool) {
	c.mu.Lock()
	c.inflight--
	fireLoad := false
	if blocking {
		c.pendingBlocking--
		if c.pendingBlocking == 0 && !c.onloadFired {
			c.onloadFired = true
			fireLoad = true
		}
	}
	settled := c.inflight == 0 && c.onloadFired
	if c.stopped {
		fireLoad, settled = false, false
	}
	c.mu.Unlock()
	if fireLoad && c.onLoad != nil {
		c.onLoad()
	}
	if settled && c.onSettled != nil {
		c.onSettled()
	}
}

// quiescent reports whether nothing can reach onObject within window from
// now: no fetch or script is in flight, and every armed page timer is due
// after the window ends.
func (c *crawler) quiescent(window time.Duration) bool {
	end := c.now().Add(window)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight > 0 {
		return false
	}
	for _, due := range c.timers {
		if !due.After(end) {
			return false
		}
	}
	return true
}

// process discovers what an object references.
func (c *crawler) process(obj Object, blocking bool, depth int) {
	switch {
	case strings.Contains(obj.ContentType, "html"):
		root, _, err := discovery.HTML(obj.Body)
		if err != nil {
			c.addError(fmt.Errorf("parse %s: %w", obj.URL, err))
			return
		}
		discovery.Fragment(c, root, discovery.Ctx{BaseURL: obj.URL, Blocking: blocking, Depth: depth})
	case strings.Contains(obj.ContentType, "css"):
		for _, ref := range discovery.CSSRefs(obj.Body, obj.URL) {
			c.Request(ref.URL, blocking, depth+1)
		}
	case strings.Contains(obj.ContentType, "javascript"):
		prog, err := minijs.CompileBytes(obj.Body)
		c.execScript(prog, err, discovery.Ctx{BaseURL: obj.URL, Blocking: blocking, Depth: depth})
	}
}

// RunScript runs an inline script (discovery.Host).
func (c *crawler) RunScript(src string, ctx discovery.Ctx) {
	prog, err := minijs.Compile(src)
	c.execScript(prog, err, ctx)
}

// execScript runs page JS in the crawl's script environment — always through
// the exec-outcome memo — then applies what it buffered: fetches and timers
// feed discovery.
func (c *crawler) execScript(prog *minijs.Program, err error, ctx discovery.Ctx) {
	if err != nil {
		c.addError(fmt.Errorf("js parse %s: %w", ctx.BaseURL, err))
		return
	}
	c.jsMu.Lock()
	effects, _, err := c.env.Run(prog, !c.noMemo)
	c.jsMu.Unlock()
	if err != nil {
		c.addError(fmt.Errorf("js run %s: %w", ctx.BaseURL, err))
	}
	c.env.Apply(effects, ctx)
}

// SetTimeout arms a page timer on the wall clock (discovery.Host).
func (c *crawler) SetTimeout(ms float64, fn *minijs.Closure, ctx discovery.Ctx) {
	ctx.Blocking = false
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	d := time.Duration(ms) * time.Millisecond
	var t stopper
	t = c.afterFunc(d, func() {
		c.mu.Lock()
		delete(c.timers, t)
		stopped := c.stopped
		if !stopped {
			c.inflight++ // armed until now, running from here
		}
		c.mu.Unlock()
		if stopped {
			return
		}
		c.jsMu.Lock()
		effects, _, err := c.env.Call(fn)
		c.jsMu.Unlock()
		if err != nil {
			c.addError(fmt.Errorf("js timer %s: %w", ctx.BaseURL, err))
		}
		c.env.Apply(effects, ctx)
		c.finish(false)
	})
	c.timers[t] = c.now().Add(d)
}

// OnEvent is a no-op: handlers run on the client, not the proxy.
func (c *crawler) OnEvent(string, string, *minijs.Closure) {}

// DOMOp is a no-op: the proxy keeps no DOM.
func (c *crawler) DOMOp() {}

// Rand draws from the crawl's seeded source; scripts run under jsMu, so the
// source is never shared.
func (c *crawler) Rand(n int) int { return c.rng.Intn(n) }
