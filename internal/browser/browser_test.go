package browser

import (
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/eventsim"
)

// fakeFetcher serves from a map after a fixed delay per object.
type fakeFetcher struct {
	sim     *eventsim.Simulator
	store   map[string]Result
	delay   time.Duration
	fetched []string
}

func (f *fakeFetcher) Fetch(url string, cb func(Result)) {
	f.fetched = append(f.fetched, url)
	f.sim.Schedule(f.delay, func() {
		r, ok := f.store[url]
		if !ok {
			cb(Result{URL: url, Status: 404, At: f.sim.Now()})
			return
		}
		r.URL = url
		r.Status = 200
		r.At = f.sim.Now()
		cb(r)
	})
}

func obj(ct, body string) Result { return Result{ContentType: ct, Body: []byte(body)} }

// arrived reports whether url's response has reached e.
func arrived(e *Engine, url string) bool { return e.objects[url].arrived }

func newEngine(t *testing.T, store map[string]Result, delay time.Duration, opt Options) (*eventsim.Simulator, *Engine, *fakeFetcher) {
	t.Helper()
	sim := eventsim.New(1)
	f := &fakeFetcher{sim: sim, store: store, delay: delay}
	if opt.CPU == (CPUModel{}) {
		opt.CPU = MobileCPU()
	}
	e := New(sim, f, opt)
	return sim, e, f
}

const mainURL = "http://www.site.com/index.html"

func TestSimplePageOnload(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><head>
			<link rel="stylesheet" href="/s.css">
			<script src="/a.js"></script>
		</head><body><img src="/i.png"></body></html>`),
		"http://www.site.com/s.css": obj("text/css", `body { color: red; }`),
		"http://www.site.com/a.js":  obj("application/javascript", `var x = 1;`),
		"http://www.site.com/i.png": obj("image/png", strings.Repeat("x", 2048)),
	}
	sim, e, f := newEngine(t, store, 50*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if _, ok := e.OnloadAt(); !ok {
		t.Fatal("onload never fired")
	}
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("complete never fired")
	}
	if len(f.fetched) != 4 {
		t.Fatalf("fetched %v, want 4 objects", f.fetched)
	}
	ol, _ := e.OnloadAt()
	co, _ := e.CompleteAt()
	if co < ol {
		t.Fatalf("complete %v before onload %v", co, ol)
	}
}

func TestJSDiscoveredObjects(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script src="/app.js"></script></html>`),
		"http://www.site.com/app.js": obj("application/javascript",
			`for (var i = 0; i < 3; i = i + 1) { fetch("/dyn/" + i + ".png"); }`),
		"http://www.site.com/dyn/0.png": obj("image/png", "a"),
		"http://www.site.com/dyn/1.png": obj("image/png", "b"),
		"http://www.site.com/dyn/2.png": obj("image/png", "c"),
	}
	sim, e, _ := newEngine(t, store, 10*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if e.NumRequested() != 5 {
		t.Fatalf("requested %d objects (%v), want 5", e.NumRequested(), e.RequestedURLs())
	}
	if _, ok := e.OnloadAt(); !ok {
		t.Fatal("onload never fired")
	}
	// JS-discovered fetches in parse context block onload.
	ol, _ := e.OnloadAt()
	if ol < 30*time.Millisecond {
		t.Fatalf("onload at %v, too early for a 3-level chain", ol)
	}
}

func TestAsyncScriptDoesNotBlockOnload(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<script src="/sync.js"></script>
			<script src="/async.js" async></script>
		</html>`),
		"http://www.site.com/sync.js": obj("application/javascript", `var a = 1;`),
		"http://www.site.com/async.js": obj("application/javascript",
			`fetch("/late.png");`),
		"http://www.site.com/late.png": obj("image/png", "z"),
	}
	// Make async.js slow by giving everything a short delay but checking
	// relative ordering of milestones instead.
	sim, e, _ := newEngine(t, store, 20*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	ol, _ := e.OnloadAt()
	co, _ := e.CompleteAt()
	if !(co > ol) {
		t.Fatalf("complete %v should be after onload %v (async tail)", co, ol)
	}
	if !arrived(e, "http://www.site.com/late.png") {
		t.Fatal("async-discovered object never loaded")
	}
}

func TestSetTimeoutFetchIsPostOnload(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script>
			setTimeout(3000, function() { fetch("/ad.png"); });
		</script><img src="/hero.jpg"></html>`),
		"http://www.site.com/hero.jpg": obj("image/jpeg", strings.Repeat("h", 1024)),
		"http://www.site.com/ad.png":   obj("image/png", "ad"),
	}
	sim, e, _ := newEngine(t, store, 10*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	ol, _ := e.OnloadAt()
	co, _ := e.CompleteAt()
	if ol > time.Second {
		t.Fatalf("onload at %v — timer must not block it", ol)
	}
	if co < 3*time.Second {
		t.Fatalf("complete at %v — must wait for the 3s timer fetch", co)
	}
	if !arrived(e, "http://www.site.com/ad.png") {
		t.Fatal("timer fetch never loaded")
	}
	if e.TimersSet != 1 {
		t.Fatalf("TimersSet = %d", e.TimersSet)
	}
}

func TestCSSDiscovery(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><link rel="stylesheet" href="/main.css"></html>`),
		"http://www.site.com/main.css": obj("text/css",
			`@import "extra.css"; body { background: url(/bg.png); }`),
		"http://www.site.com/extra.css": obj("text/css", `.x { background: url(icon.png); }`),
		"http://www.site.com/bg.png":    obj("image/png", "bg"),
		"http://www.site.com/icon.png":  obj("image/png", "ic"),
	}
	sim, e, _ := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if e.NumRequested() != 5 {
		t.Fatalf("requested %v, want 5", e.RequestedURLs())
	}
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("complete never fired")
	}
}

func TestDocumentWriteDiscovery(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script>
			document.write("<img src='/w1.png'><script src='/w2.js'></" + "script>");
		</script></html>`),
		"http://www.site.com/w1.png": obj("image/png", "1"),
		"http://www.site.com/w2.js":  obj("application/javascript", `fetch("/w3.png");`),
		"http://www.site.com/w3.png": obj("image/png", "3"),
	}
	sim, e, _ := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	for _, u := range []string{"/w1.png", "/w2.js", "/w3.png"} {
		if !arrived(e, "http://www.site.com"+u) {
			t.Fatalf("%s not loaded; requested: %v", u, e.RequestedURLs())
		}
	}
}

func TestDuplicateRequestsSuppressed(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<img src="/same.png"><img src="/same.png">
			<script>fetch("/same.png");</script>
		</html>`),
		"http://www.site.com/same.png": obj("image/png", "s"),
	}
	sim, e, f := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	count := 0
	for _, u := range f.fetched {
		if strings.HasSuffix(u, "same.png") {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("same.png fetched %d times", count)
	}
}

func TestMissingObjectToleratedAs404(t *testing.T) {
	store := map[string]Result{
		mainURL:                        obj("text/html", `<html><img src="/gone.png"><img src="/here.png"></html>`),
		"http://www.site.com/here.png": obj("image/png", "h"),
	}
	sim, e, _ := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("404 stalled the page")
	}
}

func TestEventHandlersRunLocally(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script>
			var idx = 0;
			onEvent("click", "next", function() {
				idx = idx + 1;
				document.show("img" + idx);
			});
		</script></html>`),
	}
	sim, e, f := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if e.Handlers("click", "next") != 1 {
		t.Fatalf("handlers = %d", e.Handlers("click", "next"))
	}
	fetchesBefore := len(f.fetched)
	domBefore := e.DOMOps
	for i := 0; i < 3; i++ {
		if n := e.FireEvent("click", "next"); n != 1 {
			t.Fatalf("FireEvent ran %d handlers", n)
		}
		sim.Run()
	}
	if len(f.fetched) != fetchesBefore {
		t.Fatal("local interaction caused network fetches")
	}
	if e.DOMOps != domBefore+3 {
		t.Fatalf("DOMOps = %d, want +3", e.DOMOps)
	}
}

func TestEventHandlerCanFetch(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script>
			onEvent("click", "more", function() { fetch("/extra.json"); });
		</script></html>`),
		"http://www.site.com/extra.json": obj("application/json", `{}`),
	}
	sim, e, _ := newEngine(t, store, 5*time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	e.FireEvent("click", "more")
	sim.Run()
	if !arrived(e, "http://www.site.com/extra.json") {
		t.Fatal("handler fetch not loaded")
	}
}

func TestFixedRandomMakesURLsDeterministic(t *testing.T) {
	mk := func(fixed bool, seed int64) []string {
		store := map[string]Result{
			mainURL: obj("text/html", `<html><script>
				fetch("/ad?r=" + rand(1000000));
			</script></html>`),
		}
		sim := eventsim.New(seed)
		f := &fakeFetcher{sim: sim, store: store, delay: time.Millisecond}
		e := New(sim, f, Options{CPU: MobileCPU(), FixedRandom: fixed})
		e.Load(mainURL)
		sim.Run()
		return f.fetched
	}
	a, b := mk(true, 1), mk(true, 99)
	if a[1] != b[1] {
		t.Fatalf("FixedRandom URLs differ: %v vs %v", a[1], b[1])
	}
	c, d := mk(false, 1), mk(false, 2)
	if c[1] == d[1] {
		t.Fatalf("non-fixed random URLs identical across seeds: %v", c[1])
	}
}

func TestProxyCPUFasterThanMobile(t *testing.T) {
	big := strings.Repeat(`<div><img src="/i.png"><p>text</p></div>`, 2000)
	load := func(cpu CPUModel) time.Duration {
		store := map[string]Result{
			mainURL:                     obj("text/html", `<html>`+big+`</html>`),
			"http://www.site.com/i.png": obj("image/png", "i"),
		}
		sim := eventsim.New(1)
		f := &fakeFetcher{sim: sim, store: store, delay: time.Millisecond}
		e := New(sim, f, Options{CPU: cpu})
		e.Load(mainURL)
		sim.Run()
		ol, ok := e.OnloadAt()
		if !ok {
			t.Fatal("no onload")
		}
		return ol
	}
	mobile, proxy := load(MobileCPU()), load(ProxyCPU())
	if proxy >= mobile {
		t.Fatalf("proxy onload %v not faster than mobile %v", proxy, mobile)
	}
}

func TestCPUActiveAccounted(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script>
			var s = 0;
			for (var i = 0; i < 1000; i = i + 1) { s = s + i; }
		</script></html>`),
	}
	sim, e, _ := newEngine(t, store, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if e.CPUActive() <= 0 {
		t.Fatal("no CPU time accounted")
	}
	// 1000 iterations × several ops × 8µs/op ≫ 10ms.
	if e.CPUActive() < 10*time.Millisecond {
		t.Fatalf("CPUActive = %v, suspiciously small", e.CPUActive())
	}
}

func TestLoadTwicePanics(t *testing.T) {
	sim, e, _ := newEngine(t, map[string]Result{}, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Load did not panic")
		}
	}()
	e.Load(mainURL)
}

func TestJSErrorDoesNotStallPage(t *testing.T) {
	store := map[string]Result{
		mainURL: obj("text/html", `<html>
			<script>undefined_variable_boom;</script>
			<img src="/ok.png">
		</html>`),
		"http://www.site.com/ok.png": obj("image/png", "ok"),
	}
	sim, e, _ := newEngine(t, store, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("JS error stalled page")
	}
	if len(e.JSErrors) == 0 {
		t.Fatal("JS error not recorded")
	}
}

func TestIframeRecursion(t *testing.T) {
	store := map[string]Result{
		mainURL:                     obj("text/html", `<html><iframe src="http://ads.net/frame.html"></iframe></html>`),
		"http://ads.net/frame.html": obj("text/html", `<html><img src="/banner.gif"></html>`),
		"http://ads.net/banner.gif": obj("image/gif", "b"),
	}
	sim, e, _ := newEngine(t, store, time.Millisecond, Options{})
	e.Load(mainURL)
	sim.Run()
	if !arrived(e, "http://ads.net/banner.gif") {
		t.Fatalf("iframe resources not loaded: %v", e.RequestedURLs())
	}
}

func TestMaxDepthBoundsRecursion(t *testing.T) {
	// A script chain that would recurse forever via document.write.
	store := map[string]Result{
		mainURL: obj("text/html", `<html><script src="/loop.js"></script></html>`),
		"http://www.site.com/loop.js": obj("application/javascript",
			`document.write("<script src='/loop2.js'></" + "script>");`),
		"http://www.site.com/loop2.js": obj("application/javascript",
			`document.write("<script src='/loop.js'></" + "script>");`),
	}
	sim, e, _ := newEngine(t, store, time.Millisecond, Options{MaxDepth: 3})
	e.Load(mainURL)
	sim.Run()
	if _, ok := e.CompleteAt(); !ok {
		t.Fatal("depth-bounded page did not complete")
	}
}
