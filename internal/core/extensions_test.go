package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/discovery"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/webgen"
)

func httpsPage(t testing.TB) webgen.Page {
	t.Helper()
	for _, p := range webgen.Generate(webgen.Spec{Seed: 1234, NumPages: 16}) {
		if p.HasHTTPS {
			return p
		}
	}
	t.Fatal("no https page in set")
	return webgen.Page{}
}

func TestHTTPSFallbackPath(t *testing.T) {
	page := httpsPage(t)
	topo := scenario.Build(page, scenario.DefaultParams())
	proxy := StartProxy(topo, DefaultProxyConfig())
	client := NewClient(topo, DefaultClientConfig())
	client.Load()

	if _, ok := client.Engine.CompleteAt(); !ok {
		t.Fatal("https page never completed")
	}
	if client.DirectFetches == 0 {
		t.Fatal("no direct fetches — https fallback not exercised")
	}
	sess := proxy.Sessions[0]
	if sess.SkippedHTTPS == 0 {
		t.Fatal("proxy did not skip https objects")
	}
	// The https objects arrived at the client despite never being pushed.
	for _, o := range page.Objects {
		if strings.HasPrefix(o.URL, "https://") && !client.Engine.Requested(o.URL) {
			t.Fatalf("https object %s never requested by client", o.URL)
		}
	}
	// And the proxy never pushed them.
	for _, it := range sess.cache {
		if strings.HasPrefix(it.URL, "https://") {
			t.Fatalf("proxy cached https object %s", it.URL)
		}
	}
	// The client opened more than the single proxy connection (the direct
	// TLS path), which is the cost the paper accepts for encrypted content.
	if client.direct == nil {
		t.Fatal("direct client never created")
	}
}

func TestDIRFetchesHTTPSWithTLSCost(t *testing.T) {
	page := httpsPage(t)
	topoPlain := scenario.Build(page, scenario.DefaultParams())
	run := NewClient(topoPlain, DefaultClientConfig())
	_ = run
	// Direct httpsim client: https fetch pays the TLS exchange.
	topo := scenario.Build(page, scenario.DefaultParams())
	var httpsURL string
	for _, o := range page.Objects {
		if strings.HasPrefix(o.URL, "https://") {
			httpsURL = o.URL
			break
		}
	}
	httpURL := page.MainURL
	client := httpsim.NewClient(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver, 6)
	var tHTTP, tHTTPS time.Duration
	client.Do(httpsim.Request{URL: httpURL}, func(r httpsim.Response, at time.Duration) { tHTTP = at })
	topo.Sim.Run()
	issued := topo.Sim.Now()
	client.Do(httpsim.Request{URL: httpsURL}, func(r httpsim.Response, at time.Duration) { tHTTPS = at })
	topo.Sim.Run()
	if tHTTPS == 0 || tHTTP == 0 {
		t.Fatal("fetches did not complete")
	}
	// The https fetch on a fresh pool pays handshake + TLS + request ≈ 3
	// RTTs; DNS is cached. It must take longer than 2 plain RTTs.
	rtt := topo.Net.PathBetween(topo.Client, topo.Proxy).RTT
	if got := tHTTPS - issued; got < 2*rtt {
		t.Fatalf("https fetch took %v, expected at least TCP+TLS+request ≈ 3 RTT", got)
	}
}

func TestPostRelaying(t *testing.T) {
	page := testPage(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())

	// Add a POST endpoint whose HTML response references a fresh object.
	store := page.Store()
	followup := "http://" + page.Domains[0] + "/post/receipt.png"
	store["http://"+page.Domains[0]+"/submit"] = httpsim.Object{
		URL: "http://" + page.Domains[0] + "/submit", ContentType: "text/html",
		Body: []byte(`<html><img src="/post/receipt.png"></html>`),
	}
	store[followup] = httpsim.Object{URL: followup, ContentType: "image/png", Body: []byte("receipt-bytes")}
	// Re-point the origin servers at the extended store: rebuild topology.
	page.Objects = append(page.Objects,
		store["http://"+page.Domains[0]+"/submit"], store[followup])
	topo = scenario.Build(page, scenario.DefaultParams())

	StartProxy(topo, DefaultProxyConfig())
	client := NewClient(topo, DefaultClientConfig())
	client.Load()

	var resp browser.Result
	client.Post("http://"+page.Domains[0]+"/submit", 2000, func(r browser.Result) { resp = r })
	topo.Sim.Run()
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "receipt.png") {
		t.Fatalf("post response = %+v", resp)
	}
	// §4.5: the proxy processed the HTML response and pushed its objects.
	deadline := topo.Sim.Now() + 5*time.Second
	topo.Sim.RunUntil(deadline)
	if !client.Has(followup) {
		t.Fatal("object referenced by POST response was not pushed")
	}
}

func TestPost204ForwardedUnmodified(t *testing.T) {
	page := testPage(t, 0)
	beacon := "http://" + page.Domains[0] + "/beacon"
	page.Objects = append(page.Objects, httpsim.Object{URL: beacon, Status: 204, ContentType: "text/plain"})
	topo := scenario.Build(page, scenario.DefaultParams())
	StartProxy(topo, DefaultProxyConfig())
	client := NewClient(topo, DefaultClientConfig())
	client.Load()
	var resp browser.Result
	client.Post(beacon, 300, func(r browser.Result) { resp = r })
	topo.Sim.Run()
	if resp.Status != 204 {
		t.Fatalf("status = %d, want 204", resp.Status)
	}
}

func TestRevisitPushesNothingNew(t *testing.T) {
	page := testPage(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())
	proxy := StartProxy(topo, DefaultProxyConfig())
	client := NewClient(topo, DefaultClientConfig())
	first := client.Load()
	sess := proxy.Sessions[0]
	pushedFirst := sess.Counts().ObjectsPushed

	revisit := client.Reload()
	if sess.Counts().Skipped == 0 {
		t.Fatal("no mirror hits on revisit")
	}
	// Unchanged objects were not pushed again.
	if sess.Counts().ObjectsPushed != pushedFirst {
		t.Fatalf("revisit pushed %d extra objects", sess.Counts().ObjectsPushed-pushedFirst)
	}
	if _, ok := client.Engine.CompleteAt(); !ok {
		t.Fatal("revisit never completed")
	}
	// The revisit is far faster and cheaper than the first load.
	if revisit.TLT >= first.TLT/2 {
		t.Fatalf("revisit TLT %v not much faster than first load %v", revisit.TLT, first.TLT)
	}
	if revisit.RadioJ >= first.RadioJ {
		t.Fatalf("revisit radio %.2f J >= first %.2f J", revisit.RadioJ, first.RadioJ)
	}
}

// TestRevisitReplaysFromMemo: Reload builds its engine like NewClient does, so
// on a topology with the script memo the revisit routes as many scripts
// through the memo as the first visit did (proxy and client engine both) and
// interprets none for the first time — and it measures what the
// interpret-everything reference topology measures.
func TestRevisitReplaysFromMemo(t *testing.T) {
	page := testPage(t, 0)
	memoised := func(d, since discovery.MemoStats) uint64 {
		return d.Recorded + d.Replayed + d.NonCacheable + d.Misses -
			(since.Recorded + since.Replayed + since.NonCacheable + since.Misses)
	}
	revisit := func(res *scenario.Resources) (run metrics.PageRun, first, second uint64) {
		topo := scenario.BuildWith(page, scenario.DefaultParams(), res)
		StartProxy(topo, DefaultProxyConfig())
		client := NewClient(topo, DefaultClientConfig())
		start := discovery.Stats()
		client.Load()
		loaded := discovery.Stats()
		run = client.Reload()
		done := discovery.Stats()
		if done.Recorded != loaded.Recorded {
			t.Errorf("revisit recorded %d scripts the first visit had not run", done.Recorded-loaded.Recorded)
		}
		return run, memoised(loaded, start), memoised(done, loaded)
	}
	want, first, second := revisit(nil)
	if first != 0 || second != 0 {
		t.Fatalf("reference topology routed %d + %d scripts through the memo", first, second)
	}
	got, first, second := revisit(scenario.NewResources())
	if first == 0 || second != first {
		t.Errorf("first visit routed %d scripts through the memo, revisit %d; want equal and nonzero", first, second)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("memoised revisit measured\n%+v\nreference\n%+v", got, want)
	}
}
