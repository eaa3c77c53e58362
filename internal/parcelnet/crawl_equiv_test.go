package parcelnet

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

// site is an in-memory page: URL → object.
type site map[string]sched.Item

func (st site) put(url, ct, body string) {
	st[url] = sched.Item{URL: url, ContentType: ct, Body: []byte(body)}
}

func (st site) fetch(url string) ([]byte, string, int, error) {
	if o, ok := st[url]; ok {
		return o.Body, o.ContentType, 200, nil
	}
	return nil, "", 404, nil
}

func webgenSite(p webgen.Page) site {
	st := make(site, len(p.Objects))
	for _, o := range p.Objects {
		st[o.URL] = sched.Item{URL: o.URL, ContentType: o.ContentType, Body: o.Body}
	}
	return st
}

// serialCrawl runs one crawl to idle under a deterministic schedule: the
// crawl's goroutines park in fetch and its page timers on a manual clock, and
// only when everything is parked does the driver let exactly one proceed —
// the smallest blocked URL, else the earliest timer, which moves the clock to
// its due time. The concurrent crawl's outcome depends on goroutine order
// (every generated script writes the same two globals); this one is a
// function of the page and the memo alone.
type serialCrawl struct {
	st site

	mu      sync.Mutex
	parked  map[string]chan struct{}
	clock   time.Duration // since the epoch crawlEpoch
	timers  []*manualTimer
	nTimers int
}

// crawlEpoch is the manual clock's zero.
var crawlEpoch = time.Unix(0, 0)

type manualTimer struct {
	due   time.Duration
	seq   int
	f     func()
	owner *serialCrawl
}

func (t *manualTimer) Stop() bool {
	t.owner.mu.Lock()
	defer t.owner.mu.Unlock()
	for i, o := range t.owner.timers {
		if o == t {
			t.owner.timers = append(t.owner.timers[:i], t.owner.timers[i+1:]...)
			return true
		}
	}
	return false
}

func (sc *serialCrawl) afterFunc(d time.Duration, f func()) stopper {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	t := &manualTimer{due: sc.clock + d, seq: sc.nTimers, f: f, owner: sc}
	sc.nTimers++
	sc.timers = append(sc.timers, t)
	return t
}

func (sc *serialCrawl) now() time.Time {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return crawlEpoch.Add(sc.clock)
}

func (sc *serialCrawl) fetch(url string) ([]byte, string, int, error) {
	ch := make(chan struct{})
	sc.mu.Lock()
	sc.parked[url] = ch
	sc.mu.Unlock()
	<-ch
	return sc.st.fetch(url)
}

func (sc *serialCrawl) nParked() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.parked)
}

// step lets the smallest parked URL, else the earliest timer, proceed.
func (sc *serialCrawl) step() {
	sc.mu.Lock()
	if len(sc.parked) > 0 {
		urls := make([]string, 0, len(sc.parked))
		for u := range sc.parked {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		ch := sc.parked[urls[0]]
		delete(sc.parked, urls[0])
		sc.mu.Unlock()
		close(ch)
		return
	}
	sort.Slice(sc.timers, func(i, j int) bool {
		a, b := sc.timers[i], sc.timers[j]
		return a.due < b.due || a.due == b.due && a.seq < b.seq
	})
	t := sc.timers[0]
	sc.timers = sc.timers[1:]
	sc.clock = t.due
	sc.mu.Unlock()
	t.f()
}

// settle waits until every unit the crawl has in flight is a parked fetch, so
// what the driver does next is the only thing that happens; it reports
// whether anything is left to step, parked fetch or armed page timer. The two
// reads of nParked bracket the crawler's counters so the three values
// describe one instant.
func (sc *serialCrawl) settle(t *testing.T, c *crawler) bool {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		p1 := sc.nParked()
		c.mu.Lock()
		inflight, armed := c.inflight, len(c.timers)
		c.mu.Unlock()
		if p2 := sc.nParked(); p1 == p2 && inflight == p1 {
			return inflight+armed > 0
		}
		if time.Now().After(deadline) {
			t.Fatalf("crawl never settled: %d in flight, %d parked, %d timers", inflight, p1, armed)
		}
		runtime.Gosched()
	}
}

// use puts c on the schedule's fetch and clock.
func (sc *serialCrawl) use(c *crawler) {
	c.fetch, c.afterFunc, c.now = sc.fetch, sc.afterFunc, sc.now
}

// crawlSnapshot is everything the memo must not change.
type crawlSnapshot struct {
	Requests []string // "url blocking depth", sorted
	Globals  []string // "name=value" (scalars) or "name=<host>", sorted
	Errors   []string
}

// runSerialCrawl crawls st from mainURL and returns the snapshot. configure,
// if non-nil, adjusts the crawler before it starts.
func runSerialCrawl(t *testing.T, st site, mainURL string, fixedRandom bool, configure func(*crawler)) crawlSnapshot {
	t.Helper()
	sc := &serialCrawl{st: st, parked: map[string]chan struct{}{}}
	c := newCrawler(nil, fixedRandom, func(sched.Item) {}, nil, nil)
	sc.use(c)
	if configure != nil {
		configure(c)
	}
	c.start(mainURL)
	for sc.settle(t, c) {
		sc.step()
	}
	return snapshotCrawl(c)
}

func snapshotCrawl(c *crawler) crawlSnapshot {
	var snap crawlSnapshot
	c.mu.Lock()
	for u, r := range c.requested {
		snap.Requests = append(snap.Requests, fmt.Sprintf("%s %v %d", u, r.blocking, r.depth))
	}
	c.mu.Unlock()
	sort.Strings(snap.Requests)
	c.jsMu.Lock()
	in := c.env.Interp()
	for _, name := range in.GlobalNames() {
		if v, _ := in.Global(name); v.IsScalar() {
			snap.Globals = append(snap.Globals, fmt.Sprintf("%s=%#v", name, v))
		} else {
			snap.Globals = append(snap.Globals, name+"=<host>")
		}
	}
	c.jsMu.Unlock()
	c.errMu.Lock()
	for _, err := range c.Errors {
		snap.Errors = append(snap.Errors, err.Error())
	}
	c.errMu.Unlock()
	return snap
}

// checkMemoEquivalence crawls the page with the memo bypassed, cold and warm
// and requires one snapshot.
func checkMemoEquivalence(t *testing.T, st site, mainURL string, fixedRandom bool) crawlSnapshot {
	t.Helper()
	want := runSerialCrawl(t, st, mainURL, fixedRandom, func(c *crawler) { c.noMemo = true })
	discovery.Reset()
	for _, state := range []string{"cold", "warm"} {
		if got := runSerialCrawl(t, st, mainURL, fixedRandom, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("%s memo differs from the bypassed crawl of %s:\n got %+v\nwant %+v", state, mainURL, got, want)
		}
	}
	return want
}

func TestCrawlMemoEquivalenceWebgen(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, page := range webgen.Generate(webgen.Spec{Seed: seed, NumPages: 4}) {
			snap := checkMemoEquivalence(t, webgenSite(page), page.MainURL, true)
			// The crawl asks for every object of the page (HTTPS beacons
			// included: the fetch fails, the discovery does not).
			if len(snap.Requests) != page.ObjectCount {
				t.Errorf("seed %d %s: crawl requested %d objects, page has %d", seed, page.Name, len(snap.Requests), page.ObjectCount)
			}
			if len(snap.Errors) != 0 {
				t.Errorf("seed %d %s: crawl errors %v", seed, page.Name, snap.Errors)
			}
		}
	}
}

const equivMain = "http://equiv.test/index.html"

// equivSite wraps inline scripts and extra objects into a one-document site.
func equivSite(inline []string, extra func(site)) site {
	var b strings.Builder
	b.WriteString("<html><body>")
	for _, s := range inline {
		b.WriteString("<script>" + s + "</script>")
	}
	b.WriteString("</body></html>")
	st := site{}
	st.put(equivMain, "text/html", b.String())
	if extra != nil {
		extra(st)
	}
	return st
}

func TestCrawlMemoEquivalenceCases(t *testing.T) {
	burn := func(n int) string {
		return fmt.Sprintf("var acc = 0; for (var i = 0; i < %d; i = i + 1) { acc = acc + i; }", n)
	}
	cases := []struct {
		name        string
		st          site
		fixedRandom bool
		// wantURLs and wantErrors pin the agreed snapshot, so a case
		// cannot pass by discovering nothing.
		wantURLs   []string
		wantErrors int
	}{
		{
			name: "script reads a global an earlier script wrote",
			st: equivSite([]string{
				`var shard = 3;`,
				`fetch("/img/s" + shard + ".png"); shard = shard + 1;`,
				`fetch("/img/s" + shard + ".png");`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/img/s3.png", "http://equiv.test/img/s4.png"},
		},
		{
			name: "same script body twice over different pre-state",
			st: equivSite([]string{
				`var n = 0;`,
				`n = n + 1; fetch("/img/n" + n + ".png");`,
				`n = n + 1; fetch("/img/n" + n + ".png");  `,
				`n = n + 1; fetch("/img/n" + n + ".png");`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/img/n1.png", "http://equiv.test/img/n2.png", "http://equiv.test/img/n3.png"},
		},
		{
			name: "document.write of a script src",
			st: equivSite([]string{
				`document.write("<script src='/js/loader.js'></" + "script><img src='/img/w.png'>");`,
			}, func(st site) {
				st.put("http://equiv.test/js/loader.js", "application/javascript", `fetch("/img/loaded.png"); document.append("x");`)
			}),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/js/loader.js", "http://equiv.test/img/loaded.png", "http://equiv.test/img/w.png"},
		},
		{
			name: "document.write of an inline script",
			st: equivSite([]string{
				`var step = 1; document.write("<script>step = step * 10; fetch('/img/inner' + step + '.png');</" + "script>"); step = step + 1; fetch("/img/outer" + step + ".png");`,
			}, nil),
			fixedRandom: true,
			// The written script runs after the writing script returns.
			wantURLs: []string{"http://equiv.test/img/outer2.png", "http://equiv.test/img/inner20.png"},
		},
		{
			name: "setTimeout",
			st: equivSite([]string{
				`var late = "/img/late"; setTimeout(30, function() { fetch(late + ".png"); setTimeout(5, function() { fetchAsync("/img/later.png"); }); });`,
				`late = "/img/renamed";`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/img/renamed.png", "http://equiv.test/img/later.png"},
		},
		{
			name: "rand with FixedRandom on",
			st: equivSite([]string{
				`fetch("/track/r" + rand(10) + ".gif");`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/track/r4.gif"},
		},
		{
			name: "rand with FixedRandom off",
			st: equivSite([]string{
				`fetch("/track/a" + rand(1000) + ".gif");`,
				`fetch("/track/b" + rand(1000) + ".gif");`,
			}, nil),
			fixedRandom: false,
		},
		{
			name: "onEvent handler and DOM ops",
			st: equivSite([]string{
				`var idx = 0; onEvent("click", "next", function() { idx = idx + 1; }); document.hide("a"); fetch("/img/first.png");`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/img/first.png"},
		},
		{
			// Three runs of one 2.4M-op program (12 ops an iteration; one
			// source, so one *Program) against the 5M-op budget:
			// the first records, the second replays, and the third must not
			// replay — the charge does not fit, so it re-executes and dies
			// at the same op as without the memo.
			name: "op budget exhausted mid-script",
			st: equivSite([]string{
				burn(200000) + ` fetch("/img/burn" + acc + ".png");`,
				burn(200000) + ` fetch("/img/burn" + acc + ".png");`,
				burn(200000) + ` fetch("/img/burn" + acc + ".png");`,
				`fetch("/img/unreached.png");`,
			}, nil),
			fixedRandom: true,
			wantErrors:  2, // the third run, and the script after it
		},
		{
			name: "script that errors",
			st: equivSite([]string{
				`var before = 1; fetch("/img/before.png"); setTimeout(1); fetch("/img/unreached.png");`,
				`fetch("/img/next" + before + ".png");`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/img/before.png", "http://equiv.test/img/next1.png"},
			wantErrors:  1,
		},
		{
			name: "script that does not parse",
			st: equivSite([]string{
				`var = ;`,
				`fetch("/img/ok.png");`,
			}, nil),
			fixedRandom: true,
			wantURLs:    []string{"http://equiv.test/img/ok.png"},
			wantErrors:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snap := checkMemoEquivalence(t, tc.st, equivMain, tc.fixedRandom)
			all := strings.Join(snap.Requests, "\n")
			for _, u := range tc.wantURLs {
				if !strings.Contains(all, u+" ") {
					t.Errorf("crawl did not request %s; requested:\n%s", u, all)
				}
			}
			if strings.Contains(all, "unreached") {
				t.Errorf("crawl requested past a script error:\n%s", all)
			}
			if len(snap.Errors) != tc.wantErrors {
				t.Errorf("crawl errors = %v, want %d", snap.Errors, tc.wantErrors)
			}
		})
	}
}

// engineFetcher serves a site to a browser.Engine on the virtual clock.
type engineFetcher struct {
	sim *eventsim.Simulator
	st  site
}

func (f engineFetcher) Fetch(url string, cb func(browser.Result)) {
	f.sim.Schedule(time.Millisecond, func() {
		body, ct, status, _ := f.st.fetch(url)
		cb(browser.Result{URL: url, Status: status, ContentType: ct, Body: body, At: f.sim.Now()})
	})
}

// engineSnapshot is what an Engine load must show whichever host recorded
// the outcomes it replays.
type engineSnapshot struct {
	Requested []string
	DOMOps    int
	TimersSet int
	JSErrors  int
	Complete  time.Duration
}

func runEngine(st site, mainURL string, execCache bool) engineSnapshot {
	sim := eventsim.New(1)
	e := browser.New(sim, engineFetcher{sim, st}, browser.Options{CPU: browser.ProxyCPU(), FixedRandom: true, ExecCache: execCache})
	e.Load(mainURL)
	sim.Run()
	at, _ := e.CompleteAt()
	return engineSnapshot{e.RequestedURLs(), e.DOMOps, e.TimersSet, len(e.JSErrors), at}
}

// TestCrossHostReplay records outcomes with one host and replays them on the
// other, both ways: both hosts compile through minijs.Compile, so the same
// page gives both the same *Program keys.
func TestCrossHostReplay(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, page := range webgen.Generate(webgen.Spec{Seed: seed, NumPages: 4}) {
			st := webgenSite(page)
			wantCrawl := runSerialCrawl(t, st, page.MainURL, true, func(c *crawler) { c.noMemo = true })
			wantEngine := runEngine(st, page.MainURL, false)
			if wantEngine.DOMOps == 0 || wantEngine.TimersSet == 0 {
				t.Fatalf("%s: engine saw %d DOM ops, %d timers; the page exercises neither", page.Name, wantEngine.DOMOps, wantEngine.TimersSet)
			}

			discovery.Reset()
			if got := runEngine(st, page.MainURL, true); !reflect.DeepEqual(got, wantEngine) {
				t.Errorf("%s: recording engine differs from executing engine:\n got %+v\nwant %+v", page.Name, got, wantEngine)
			}
			if got := runSerialCrawl(t, st, page.MainURL, true, nil); !reflect.DeepEqual(got, wantCrawl) {
				t.Errorf("%s: crawl replaying engine recordings differs:\n got %+v\nwant %+v", page.Name, got, wantCrawl)
			}

			discovery.Reset()
			if got := runSerialCrawl(t, st, page.MainURL, true, nil); !reflect.DeepEqual(got, wantCrawl) {
				t.Errorf("%s: recording crawl differs:\n got %+v\nwant %+v", page.Name, got, wantCrawl)
			}
			if got := runEngine(st, page.MainURL, true); !reflect.DeepEqual(got, wantEngine) {
				t.Errorf("%s: engine replaying crawl recordings differs:\n got %+v\nwant %+v", page.Name, got, wantEngine)
			}
		}
	}
}

// freeCrawl runs one free-running crawl of the page at mainURL to idle — real
// goroutines, no schedule, page timers firing at once — and returns how many
// URLs it requested: what a warm-cache session costs the proxy before the
// first byte is scheduled.
func (st site) freeCrawl(mainURL string) int {
	idle := make(chan struct{})
	var once sync.Once
	var c *crawler
	c = newCrawler(st.fetch, true, func(sched.Item) {}, nil, func() {
		// Idle is settled with no timer left armed, whatever its due time.
		if c.quiescent(time.Duration(math.MaxInt64)) {
			once.Do(func() { close(idle) })
		}
	})
	c.afterFunc = func(_ time.Duration, f func()) stopper { return time.AfterFunc(0, f) }
	c.start(mainURL)
	<-idle
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.requested)
}

// TestCrawlMemoRaceStress runs 32 free-running crawls of one page at once so
// the race detector sees the shared caches under the contention a busy proxy
// puts on them. Every crawl must still discover the whole page.
func TestCrawlMemoRaceStress(t *testing.T) {
	page := webgen.Generate(webgen.Spec{Seed: 7, NumPages: 4})[1]
	st := webgenSite(page)
	discovery.Reset()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := st.freeCrawl(page.MainURL); n != page.ObjectCount {
				t.Errorf("crawl requested %d of %d objects", n, page.ObjectCount)
			}
		}()
	}
	wg.Wait()
}

// crawlWarmAllocBudget bounds one warm discovery crawl of the benchmark page:
// cached trees and refs, every cacheable script replayed from the
// exec-outcome memo. What remains is a closure per requested URL, the
// resource walk of the main document, and the timer-arming inline script,
// which always executes. Measured 179 on go1.24, the same plain and under
// -race, -cover and -tags simdebug.
const crawlWarmAllocBudget = 250

// TestCrawlWarmAllocBudget fails when a warm crawl starts allocating per
// script or per object again (the memo bypassed, a cache missed).
func TestCrawlWarmAllocBudget(t *testing.T) {
	page := webgen.Generate(webgen.Spec{Seed: 77, NumPages: 4})[2]
	st := webgenSite(page)
	if n := st.freeCrawl(page.MainURL); n != page.ObjectCount {
		t.Fatalf("crawl requested %d of %d objects", n, page.ObjectCount)
	}
	if avg := testing.AllocsPerRun(50, func() { st.freeCrawl(page.MainURL) }); avg > crawlWarmAllocBudget {
		t.Errorf("warm discovery crawl allocates %.0f/op, budget %d", avg, crawlWarmAllocBudget)
	} else {
		t.Logf("warm discovery crawl: %.0f allocs/op (budget %d)", avg, crawlWarmAllocBudget)
	}
}
