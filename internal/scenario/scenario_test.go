package scenario

import (
	"math/rand"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/webgen"
)

func onePage(t testing.TB) webgen.Page {
	t.Helper()
	return webgen.Generate(webgen.Spec{Seed: 3, NumPages: 2})[0]
}

func TestBuildWiresEveryDomain(t *testing.T) {
	page := onePage(t)
	topo := Build(page, DefaultParams())
	if len(topo.Dir) != len(page.Domains) {
		t.Fatalf("directory has %d domains, page has %d", len(topo.Dir), len(page.Domains))
	}
	for _, d := range page.Domains {
		if topo.Dir.HostFor(d) == nil {
			t.Fatalf("domain %s unmapped", d)
		}
	}
	if topo.Client == nil || topo.Proxy == nil || topo.DNS == nil {
		t.Fatal("missing core hosts")
	}
	if topo.ClientTrace == nil {
		t.Fatal("client trace missing")
	}
}

func TestOriginsServePageObjects(t *testing.T) {
	page := onePage(t)
	topo := Build(page, DefaultParams())
	// Fetch the main page from the client over the built topology.
	client := httpsim.NewClient(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver, 6)
	var got httpsim.Response
	client.Do(httpsim.Request{URL: page.MainURL}, func(r httpsim.Response, at time.Duration) { got = r })
	topo.Sim.Run()
	if got.Status != 200 || len(got.Body) == 0 {
		t.Fatalf("main page fetch: %+v", got.Status)
	}
}

func TestWiredProfileFaster(t *testing.T) {
	page := onePage(t)
	fetchTime := func(wired bool) time.Duration {
		params := DefaultParams()
		params.Wired = wired
		topo := Build(page, params)
		client := httpsim.NewClient(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver, 6)
		var done time.Duration
		client.Do(httpsim.Request{URL: page.MainURL}, func(r httpsim.Response, at time.Duration) { done = at })
		topo.Sim.Run()
		return done
	}
	if w, c := fetchTime(true), fetchTime(false); w >= c {
		t.Fatalf("wired fetch %v >= cellular %v", w, c)
	}
}

func TestHeterogeneousOriginsVary(t *testing.T) {
	page := onePage(t)
	params := DefaultParams()
	params.HeterogeneousOrigins = true
	topo := Build(page, params)
	// Paths differ across origins: check at least two distinct RTTs.
	seen := map[time.Duration]bool{}
	for _, d := range page.Domains {
		p := topo.Net.PathBetween(topo.Proxy, topo.Dir.HostFor(d))
		seen[p.RTT] = true
	}
	if len(page.Domains) >= 4 && len(seen) < 2 {
		t.Fatalf("heterogeneous origins produced a single RTT: %v", seen)
	}
}

func TestZeroParamsGetDefaults(t *testing.T) {
	page := onePage(t)
	topo := Build(page, Params{})
	if rtt := topo.Net.PathBetween(topo.Client, topo.Proxy).RTT; rtt != 78*time.Millisecond {
		t.Fatalf("zero params: access RTT = %v, want the calibrated 78ms", rtt)
	}
	origin := topo.Dir.HostFor(page.Domains[0])
	if rtt := topo.Net.PathBetween(topo.Proxy, origin).RTT; rtt != 20*time.Millisecond {
		t.Fatalf("zero params: proxy-origin RTT = %v, want 20ms", rtt)
	}
}

// TestPartialParamsKept builds from params that set only some fields: every
// field set must reach the topology, none may be swapped for the defaults.
func TestPartialParamsKept(t *testing.T) {
	page := onePage(t)
	topo := Build(page, Params{Seed: 5, Wired: true})
	if rtt := topo.Net.PathBetween(topo.Client, topo.Proxy).RTT; rtt != 12*time.Millisecond {
		t.Errorf("Wired dropped: access RTT = %v, want the wire-line 12ms", rtt)
	}
	if got, want := topo.Sim.Rand().Int63(), rand.New(rand.NewSource(5)).Int63(); got != want {
		t.Errorf("Seed dropped: the simulator's first draw %d is not seed 5's %d", got, want)
	}
}

func TestProxyOriginRTTRespected(t *testing.T) {
	page := onePage(t)
	params := DefaultParams()
	params.ProxyOriginRTT = 60 * time.Millisecond
	topo := Build(page, params)
	p := topo.Net.PathBetween(topo.Proxy, topo.Dir.HostFor(page.Domains[0]))
	if p.RTT != 60*time.Millisecond {
		t.Fatalf("proxy-origin RTT = %v", p.RTT)
	}
}
