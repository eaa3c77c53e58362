package parcelnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestMultiTenantSharedCache drives a fleet of concurrent sessions through
// one proxy and its cross-session cache: every session
// completes with the full object set, yet the origin is fetched once per URL
// — the fleet's total origin bytes equal one copy of the page, and every
// session beyond the flight group reports cache hits.
func TestMultiTenantSharedCache(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
		CacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const tenants = 12
	notes := make([]CompleteNote, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client, err := Dial(proxy.Addr(), nil)
			if err != nil {
				errs[id] = err
				return
			}
			defer client.Close()
			if err := client.RequestPage(mainURL, "", ""); err != nil {
				errs[id] = err
				return
			}
			note, err := client.WaitComplete(15 * time.Second)
			if err != nil {
				errs[id] = err
				return
			}
			if got := len(client.Objects()); got != archive.Len() {
				t.Errorf("tenant %d received %d objects, want %d", id, got, archive.Len())
			}
			notes[id] = note
		}(i)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", id, err)
		}
	}

	// Purity + dedup: the origin served each URL exactly once across the
	// fleet, so the summed per-session origin bytes equal one page copy.
	var originBytes int64
	var hits int
	for _, n := range notes {
		originBytes += n.OriginBytes
		hits += n.CacheHits
	}
	if originBytes != archive.TotalBytes() {
		t.Errorf("fleet origin bytes = %d, want exactly one page copy = %d", originBytes, archive.TotalBytes())
	}
	if hits == 0 {
		t.Error("no session reported a cache hit across 12 tenants of one page")
	}
	if got := int(origin.Requests()); got != archive.Len() {
		t.Errorf("origin served %d requests, want %d (one per object)", got, archive.Len())
	}
	st := proxy.CacheStats()
	if st.Hits+st.Shared == 0 {
		t.Errorf("cache never shared anything: %+v", st)
	}
	if proxy.SessionsServed() != tenants {
		t.Errorf("sessions served = %d, want %d", proxy.SessionsServed(), tenants)
	}
	// All clients closed: the registry reaps their sessions.
	waitFor(t, 5*time.Second, func() bool { return proxy.Sessions() == 0 })
}

// TestMultiTenantKillSubsetSurvivorsComplete kills a subset of tenants
// mid-page (netem KillAfterBytes on their connections) while the rest load
// normally: survivors complete with the full object set, the killed sessions'
// proxy state is reaped from the registry, and nothing leaks.
func TestMultiTenantKillSubsetSurvivorsComplete(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
		CacheBytes:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const tenants = 8
	const victims = 3 // tenants 0..2 die mid-page
	killDial := func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		// The page is ~17 KB; 2 KB guarantees the kill lands mid-push.
		return netem.Wrap(conn, netem.Params{KillAfterBytes: 2000}), nil
	}
	var wg sync.WaitGroup
	killedErrs := make([]error, victims)
	survivorErrs := make([]error, tenants-victims)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := ClientConfig{}
			if id < victims {
				cfg.Dial = killDial
				cfg.MaxRetries = -1 // killed tenants stay dead
			}
			client, err := DialConfig(proxy.Addr(), cfg)
			if err != nil {
				t.Errorf("tenant %d dial: %v", id, err)
				return
			}
			defer client.Close()
			if err := client.RequestPage(mainURL, "", ""); err != nil {
				t.Errorf("tenant %d request: %v", id, err)
				return
			}
			_, err = client.WaitComplete(15 * time.Second)
			if id < victims {
				killedErrs[id] = err
			} else {
				survivorErrs[id-victims] = err
				if err == nil && len(client.Objects()) != archive.Len() {
					t.Errorf("survivor %d received %d objects, want %d", id, len(client.Objects()), archive.Len())
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range killedErrs {
		if err == nil {
			t.Errorf("victim %d completed despite the injected kill", i)
		}
	}
	for i, err := range survivorErrs {
		if err != nil {
			t.Errorf("survivor %d failed: %v", i+victims, err)
		}
	}
	// Dead and closed sessions alike are reaped from the registry.
	waitFor(t, 5*time.Second, func() bool { return proxy.Sessions() == 0 })
	if n := len(proxy.activeSessions()); n != 0 {
		t.Errorf("the registry still holds %d sessions", n)
	}
}

// TestShardDistribution is the session registry check: 32 concurrent
// sessions are each counted once, by Sessions and by SessionsServed, and none
// remain once their clients close.
func TestShardDistribution(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, _ := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr: origin.Addr(),
		Sched:      sched.ConfigIND,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const tenants = 32
	clients := make([]*Client, tenants)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(proxy.Addr(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			clients[i] = c
		}()
	}
	wg.Wait()
	if t.Failed() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
		t.FailNow()
	}
	waitFor(t, 5*time.Second, func() bool { return proxy.Sessions() == tenants })
	if n := proxy.SessionsServed(); n != tenants {
		t.Errorf("served %d sessions, want %d", n, tenants)
	}
	for _, c := range clients {
		c.Close()
	}
	waitFor(t, 5*time.Second, func() bool { return proxy.Sessions() == 0 })
	if n := proxy.SessionsServed(); n != tenants {
		t.Errorf("served %d sessions after the clients closed, want %d", n, tenants)
	}
}
