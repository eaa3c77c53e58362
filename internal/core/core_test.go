package core

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/dirbrowser"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/webgen"
)

// testPage returns a midsize generated page (deterministic).
func testPage(t testing.TB, idx int) webgen.Page {
	t.Helper()
	pages := webgen.Generate(webgen.Spec{Seed: 1234, NumPages: 8})
	return pages[idx%len(pages)]
}

func parcelRun(t testing.TB, page webgen.Page, cfg sched.Config) ( /*run*/ struct {
	OLT, TLT time.Duration
	RadioJ   float64
}, *Client, *Proxy) {
	t.Helper()
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := DefaultProxyConfig()
	pc.Sched = cfg
	proxy := StartProxy(topo, pc)
	client := NewClient(topo, DefaultClientConfig())
	run := client.Load()
	if run.OLT == 0 {
		t.Fatalf("PARCEL OLT zero — onload never fired (page %s)", page.Name)
	}
	return struct {
		OLT, TLT time.Duration
		RadioJ   float64
	}{run.OLT, run.TLT, run.RadioJ}, client, proxy
}

func TestParcelLoadsFullPage(t *testing.T) {
	page := testPage(t, 0)
	_, client, proxy := parcelRun(t, page, sched.ConfigIND)
	if _, ok := client.Engine.CompleteAt(); !ok {
		t.Fatal("client never completed page")
	}
	if len(client.Engine.JSErrors) > 0 {
		t.Fatalf("client JS errors: %v", client.Engine.JSErrors)
	}
	// Every object of the generated page was pushed or fetched.
	if client.ObjectsReceived < page.ObjectCount {
		t.Fatalf("client received %d objects, page has %d", client.ObjectsReceived, page.ObjectCount)
	}
	sess := proxy.Sessions[0]
	if sess.Counts().ObjectsPushed < page.ObjectCount {
		t.Fatalf("proxy pushed %d, page has %d", sess.Counts().ObjectsPushed, page.ObjectCount)
	}
	if !sess.page.Completed() {
		t.Fatal("proxy never declared completion")
	}
}

func TestParcelNoFallbacksUnderReplayRewrite(t *testing.T) {
	// With FixedRandom on both sides, proxy and client identify identical
	// URL sets — no fallback requests (the §7.3 rewrite contract).
	for idx := 0; idx < 4; idx++ {
		_, client, _ := parcelRun(t, testPage(t, idx), sched.ConfigIND)
		if client.Fallbacks != 0 {
			t.Fatalf("page %d: %d fallback requests under replay rewrite", idx, client.Fallbacks)
		}
	}
}

func TestParcelSuppressesClientRequests(t *testing.T) {
	page := testPage(t, 0)
	_, client, _ := parcelRun(t, page, sched.ConfigIND)
	if client.SuppressedRequests == 0 && len(client.waiting) == 0 {
		t.Fatal("no suppression observed")
	}
	// The client issued exactly one HTTP request (the page request).
	run := client.Collect()
	if run.HTTPRequests != 1 {
		t.Fatalf("client HTTP requests = %d, want 1", run.HTTPRequests)
	}
	if run.ConnsOpened != 1 {
		t.Fatalf("client conns = %d, want 1", run.ConnsOpened)
	}
}

func TestParcelBeatsDIROnLatencyAndEnergy(t *testing.T) {
	// The headline claim (§8.1) at single-page granularity: PARCEL(IND)
	// loads faster and spends less radio energy than DIR.
	for idx := 0; idx < 3; idx++ {
		page := testPage(t, idx)
		pRun, _, _ := parcelRun(t, page, sched.ConfigIND)
		dTopo := scenario.Build(page, scenario.DefaultParams())
		dRun := dirbrowser.New(dTopo, dirbrowser.Options{FixedRandom: true}).Load()
		if dRun.OLT == 0 {
			t.Fatalf("DIR OLT zero on page %d", idx)
		}
		if pRun.OLT >= dRun.OLT {
			t.Errorf("page %d: PARCEL OLT %v >= DIR OLT %v", idx, pRun.OLT, dRun.OLT)
		}
		if pRun.RadioJ >= dRun.RadioJ {
			t.Errorf("page %d: PARCEL radio %.2fJ >= DIR %.2fJ", idx, pRun.RadioJ, dRun.RadioJ)
		}
	}
}

func TestSchedulesOrderOLT(t *testing.T) {
	// §8.3: OLT(IND) <= OLT(PARCEL(X)) <= OLT(ONLD), with larger bundles
	// increasing OLT.
	page := testPage(t, 1)
	ind, _, _ := parcelRun(t, page, sched.ConfigIND)
	x512, _, _ := parcelRun(t, page, sched.Config512K)
	onld, _, _ := parcelRun(t, page, sched.ConfigONLD)
	if !(ind.OLT <= x512.OLT+time.Millisecond) {
		t.Errorf("OLT IND %v > 512K %v", ind.OLT, x512.OLT)
	}
	if !(x512.OLT <= onld.OLT+time.Millisecond) {
		t.Errorf("OLT 512K %v > ONLD %v", x512.OLT, onld.OLT)
	}
}

func TestONLDSingleBundleUntilOnload(t *testing.T) {
	page := testPage(t, 2)
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := DefaultProxyConfig()
	pc.Sched = sched.ConfigONLD
	proxy := StartProxy(topo, pc)
	client := NewClient(topo, DefaultClientConfig())
	client.Load()
	sess := proxy.Sessions[0]
	// ONLD: exactly one onload flush; everything else is per-object straggler
	// pushes after onload (post-onload async ads) — never a threshold flush.
	onloadFlushes, preOnload := 0, 0
	for i, reason := range sess.BundleLog {
		switch reason {
		case sched.FlushOnload:
			onloadFlushes++
			if i != 0 {
				t.Fatalf("onload flush was not the first bundle: %v", sess.BundleLog)
			}
		case sched.FlushThreshold:
			t.Fatalf("ONLD produced a threshold flush: %v", sess.BundleLog)
		case sched.FlushObject:
			if onloadFlushes == 0 {
				preOnload++
			}
		}
	}
	if onloadFlushes != 1 {
		t.Fatalf("onload flushes = %d, want 1 (%v)", onloadFlushes, sess.BundleLog)
	}
	if preOnload != 0 {
		t.Fatalf("%d per-object pushes before onload under ONLD", preOnload)
	}
}

func TestFallbackServesMissingObject(t *testing.T) {
	// Disable the replay rewrite on the client only: the client's JS derives
	// a random URL the proxy didn't push; after the completion notification
	// the client must fetch it via the fallback path and still complete.
	pages := webgen.Generate(webgen.Spec{Seed: 99, NumPages: 34})
	var page webgen.Page
	for _, p := range pages {
		if p.HasRandomURL {
			page = p
			break
		}
	}
	if page.Name == "" {
		t.Fatal("no random-URL page")
	}
	topo := scenario.Build(page, scenario.DefaultParams())
	proxy := StartProxy(topo, DefaultProxyConfig())
	cc := DefaultClientConfig()
	cc.FixedRandom = false // client derives a different random URL
	client := NewClient(topo, cc)
	client.Start()
	// Tally every object the proxy hands the client in a bundle.
	var bundled int
	var bundledBytes int64
	client.conn.OnMessage(topo.Client, func(m simnet.Message) {
		if b, ok := m.Payload.(bundleMsg); ok {
			for _, it := range b.Parts {
				bundled++
				bundledBytes += int64(len(it.Body))
			}
		}
		client.onMessage(m)
	})
	topo.Sim.Run()
	if _, ok := client.Engine.CompleteAt(); !ok {
		t.Fatal("client stalled on missing object")
	}
	if client.Fallbacks == 0 {
		t.Fatal("expected at least one fallback request")
	}
	// Each answer is a push like any other: the session books it, it arrives
	// in a bundle, and it is the bundle log's last release.
	sess := proxy.Sessions[0]
	if c := sess.Counts(); c.ObjectsPushed != client.ObjectsReceived || c.BytesPushed != bundledBytes {
		t.Errorf("proxy booked %d objects / %d B pushed; client received %d objects, bundles carried %d B",
			c.ObjectsPushed, c.BytesPushed, client.ObjectsReceived, bundledBytes)
	}
	if bundled != client.ObjectsReceived {
		t.Errorf("client received %d objects, %d of them in bundles", client.ObjectsReceived, bundled)
	}
	if n := len(sess.BundleLog); n == 0 || sess.BundleLog[n-1] != sched.FlushRequested {
		t.Errorf("bundle log %v does not end with a requested release", sess.BundleLog)
	}
}

func TestQuietPeriodDelaysCompletion(t *testing.T) {
	page := testPage(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := DefaultProxyConfig()
	pc.QuietPeriod = 2 * time.Second
	proxy := StartProxy(topo, pc)
	NewClient(topo, DefaultClientConfig()).Load()
	sess := proxy.Sessions[0]
	if sess.CompleteAt < sess.OnloadAt+pc.QuietPeriod {
		t.Fatalf("completion %v fired before onload %v + quiet %v",
			sess.CompleteAt, sess.OnloadAt, pc.QuietPeriod)
	}
}

func TestParcelClientTraceHasSingleConnection(t *testing.T) {
	page := testPage(t, 0)
	topo := scenario.Build(page, scenario.DefaultParams())
	StartProxy(topo, DefaultProxyConfig())
	client := NewClient(topo, DefaultClientConfig())
	client.Load()
	conns := map[uint64]bool{}
	for _, p := range topo.ClientTrace.Packets() {
		if p.Conn != 0 {
			conns[p.Conn] = true
		}
	}
	if len(conns) != 1 {
		t.Fatalf("client trace shows %d connections, want 1", len(conns))
	}
}

func TestInteractionStaysLocal(t *testing.T) {
	pages := webgen.Generate(webgen.Spec{Seed: 1234, NumPages: 8})
	page := webgen.InteractivePage(pages)
	topo := scenario.Build(page, scenario.DefaultParams())
	StartProxy(topo, DefaultProxyConfig())
	client := NewClient(topo, DefaultClientConfig())
	client.Load()
	packetsBefore := topo.ClientTrace.Len()
	for i := 0; i < 4; i++ {
		if n := client.Engine.FireEvent("click", "gallery-next"); n == 0 {
			t.Fatal("no gallery handler registered")
		}
		topo.Sim.Run()
	}
	if got := topo.ClientTrace.Len(); got != packetsBefore {
		t.Fatalf("local clicks generated %d network packets", got-packetsBefore)
	}
}
