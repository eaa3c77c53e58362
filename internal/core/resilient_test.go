package core

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

// testResiliencePolicy is a permissive policy for tests that exercise
// retries without tripping the breaker.
func testResiliencePolicy() resilience.Policy {
	return resilience.Policy{
		Timeout:          10 * time.Second,
		MaxRetries:       5,
		BackoffBase:      500 * time.Millisecond,
		BackoffMax:       2 * time.Second,
		FailureThreshold: 1000,
		OpenFor:          3 * time.Second,
	}
}

// TestSimResilientRetriesThroughFlap flaps every origin for the first two
// virtual seconds: the retry budget carries each fetch past the window, the
// page completes in full, and the retries surface in session accounting and
// the completion note.
func TestSimResilientRetriesThroughFlap(t *testing.T) {
	page := testPage(t, 0)
	params := scenario.DefaultParams()
	params.OriginFaults = httpsim.OriginFaults{
		Flaps: []httpsim.FlapWindow{{Start: 0, End: 2 * time.Second}},
	}
	topo := scenario.Build(page, params)
	pc := DefaultProxyConfig()
	pc.Resilience = testResiliencePolicy()
	proxy := StartProxy(topo, pc)
	client := NewClient(topo, DefaultClientConfig())
	run := client.Load()

	if run.OLT == 0 {
		t.Fatal("onload never fired: retries did not carry the page past the flap")
	}
	sess := proxy.Sessions[0]
	if sess.Counts().OriginRetries == 0 {
		t.Error("no origin retries recorded through a 2 s flap window")
	}
	if sess.Counts().ObjectsPushed < page.ObjectCount {
		t.Errorf("proxy pushed %d objects, page has %d", sess.Counts().ObjectsPushed, page.ObjectCount)
	}
	var flaps int
	for _, srv := range topo.Origins {
		flaps += srv.FaultStats().FlapErrors
	}
	if flaps == 0 {
		t.Error("origins injected no flap errors")
	}
}

// TestSimResilientBreakerOpens drives retries into a permanently erroring
// origin with a tight threshold: the per-origin breaker opens mid-retry, the
// remaining budget fast-fails instead of dialing, and the counters say so.
func TestSimResilientBreakerOpens(t *testing.T) {
	page := testPage(t, 0)
	params := scenario.DefaultParams()
	params.OriginFaults = httpsim.OriginFaults{ErrorRate: 1}
	topo := scenario.Build(page, params)
	pc := DefaultProxyConfig()
	pc.Resilience = resilience.Policy{
		Timeout:          5 * time.Second,
		MaxRetries:       4,
		BackoffBase:      100 * time.Millisecond,
		FailureThreshold: 2,
		OpenFor:          time.Minute,
	}
	proxy := StartProxy(topo, pc)
	client := NewClient(topo, DefaultClientConfig())
	client.Load()

	sess := proxy.Sessions[0]
	if sess.Counts().OriginRetries == 0 {
		t.Error("no retries against an always-erroring origin")
	}
	if sess.BreakerFastFails == 0 {
		t.Error("breaker never fast-failed a retry after opening")
	}
	if proxy.Resilience().Opens() == 0 {
		t.Error("breaker never opened despite threshold 2 and ErrorRate 1")
	}
}

// TestSimResilientServesStaleWhenOriginFails warms the shared cache with one
// clean load, then flaps every origin forever and loads the page again: the
// second session is served entirely from stale cache entries, completes, and
// tags the degradation in StaleServes on the session and its completion note.
func TestSimResilientServesStaleWhenOriginFails(t *testing.T) {
	page := testPage(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := DefaultProxyConfig()
	pc.Cache = objcache.New(objcache.Config{
		Capacity: 64 << 20,
		FreshFor: time.Nanosecond, // everything is stale by the next load
		NegTTL:   time.Second,
	})
	pc.Resilience = resilience.Policy{
		Timeout:          5 * time.Second,
		MaxRetries:       0,
		FailureThreshold: 1 << 30, // keep the breaker out of this test
	}
	proxy := StartProxy(topo, pc)

	warm := NewClient(topo, DefaultClientConfig())
	if run := warm.Load(); run.OLT == 0 {
		t.Fatal("warm load never fired onload")
	}
	// The simulated origin hashes nothing; the store path derived the cache
	// generation from the delivered bytes, the same digest the real arm's
	// origin serves as its ETag.
	if main, ok := pc.Cache.Get(page.MainURL); !ok || main.Validator != httpsim.ContentValidator(main.Body) {
		t.Fatalf("main object cached=%v under validator %q, want the content hash of its body", ok, main.Validator)
	}

	// Every origin fails from here on.
	for _, srv := range topo.Origins {
		if err := srv.SetFaults(httpsim.OriginFaults{
			Flaps: []httpsim.FlapWindow{{Start: 0, End: 1000 * time.Hour}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	client := NewClient(topo, DefaultClientConfig())
	run := client.Load()
	if run.OLT == 0 {
		t.Fatal("stale load never fired onload: serve-stale did not carry the page")
	}
	sess := proxy.Sessions[1]
	if sess.Counts().StaleServes == 0 {
		t.Error("no stale serves recorded with every origin flapping")
	}
	if sess.Counts().ObjectsPushed < page.ObjectCount {
		t.Errorf("stale session pushed %d objects, page has %d", sess.Counts().ObjectsPushed, page.ObjectCount)
	}
	st := pc.Cache.Stats()
	if st.StaleServes == 0 {
		t.Errorf("cache recorded no stale serves: %+v", st)
	}
}

// TestFallbackFetchRunsTheFetchProcedure: a §4.5 fallback request for a URL
// the proxy never saw (the client's JS derived a different random URL) goes
// through the session's one fetch procedure, so it is on the session's books
// like any other origin fetch — a miss, its bytes in OriginBytes — and the
// client is answered.
func TestFallbackFetchRunsTheFetchProcedure(t *testing.T) {
	var page webgen.Page
	for _, p := range webgen.Generate(webgen.Spec{Seed: 99, NumPages: 34}) {
		if p.HasRandomURL {
			page = p
			break
		}
	}
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := DefaultProxyConfig()
	pc.Cache = objcache.New(objcache.Config{Capacity: 64 << 20})
	proxy := StartProxy(topo, pc)
	cc := DefaultClientConfig()
	cc.FixedRandom = false
	client := NewClient(topo, cc)
	client.Load()
	if _, ok := client.Engine.CompleteAt(); !ok {
		t.Fatal("client stalled on missing object")
	}
	sess := proxy.Sessions[0]
	if client.Fallbacks == 0 || sess.FallbacksSeen != client.Fallbacks {
		t.Fatalf("client sent %d fallback requests, proxy saw %d; want at least one", client.Fallbacks, sess.FallbacksSeen)
	}
	// One session on an empty cache: everything it holds, pushed or fetched
	// for a fallback request, it fetched from the origin itself.
	var held int64
	for _, it := range sess.cache {
		held += int64(len(it.Body))
	}
	if sess.Counts().CacheMisses != len(sess.cache) || sess.Counts().CacheHits != 0 || sess.Counts().OriginBytes != held {
		t.Errorf("session booked %d misses, %d hits, %d origin bytes; it holds %d objects of %d bytes",
			sess.Counts().CacheMisses, sess.Counts().CacheHits, sess.Counts().OriginBytes, len(sess.cache), held)
	}
}
