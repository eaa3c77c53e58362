package parcelnet

import (
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestResilientRetriesThroughFlap runs a session against an origin that is
// down for its first 750 ms (a flap window): the resilient fetch path retries
// with backoff until the window passes, the session completes with the full
// object set, and the retries are charged to the session's CompleteNote and
// SessionLoad.
func TestResilientRetriesThroughFlap(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	fi, err := replay.NewFaultInjector(replay.OriginFaults{
		Flaps: []replay.FlapWindow{{Start: 0, End: 750 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	origin.SetFaults(fi)
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
		Resilience: resilience.Policy{
			Timeout:          2 * time.Second,
			MaxRetries:       3,
			BackoffBase:      500 * time.Millisecond,
			BackoffMax:       time.Second,
			FailureThreshold: 8,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	client, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(client.Objects()); got != archive.Len() {
		t.Errorf("received %d objects, want %d", got, archive.Len())
	}
	if note.OriginRetries == 0 {
		t.Error("note.OriginRetries = 0, want at least one retry through the flap window")
	}
	if fs := origin.FaultStats(); fs.FlapErrors == 0 {
		t.Errorf("origin injected no flap errors: %+v", fs)
	}
	if rs := proxy.ResilienceStats(); rs.Retries == 0 {
		t.Errorf("proxy resilience stats recorded no retries: %+v", rs)
	}
	if l := client.SessionLoad(0); l.Retries == 0 {
		t.Errorf("SessionLoad.Retries = 0, want note retries carried through (note=%+v)", note)
	}
}

// TestResilientServesStaleWhenOriginDies loads a page once to warm the shared
// cache, kills the origin, waits out the freshness window, and loads again:
// every object is served from the stale cache instead of failing, the session
// completes with the full set, and the degradation is tagged in StaleServes.
func TestResilientServesStaleWhenOriginDies(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:    origin.Addr(),
		Sched:         sched.ConfigIND,
		QuietPeriod:   300 * time.Millisecond,
		FixedRandom:   true,
		CacheBytes:    1 << 20,
		CacheFreshFor: 50 * time.Millisecond,
		Resilience: resilience.Policy{
			Timeout:    2 * time.Second,
			MaxRetries: 0,
			NegTTL:     time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	warm, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.WaitComplete(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	origin.Close()
	time.Sleep(100 * time.Millisecond) // entries age past CacheFreshFor

	client, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(client.Objects()); got != archive.Len() {
		t.Errorf("stale session received %d objects, want %d", got, archive.Len())
	}
	if note.StaleServes == 0 {
		t.Errorf("note.StaleServes = 0, want stale serves with the origin dead (note=%+v)", note)
	}
	if l := client.SessionLoad(1); l.StaleServes == 0 {
		t.Error("SessionLoad.StaleServes = 0, want note stale serves carried through")
	}
	if st := proxy.CacheStats(); st.StaleServes == 0 {
		t.Errorf("cache recorded no stale serves: %+v", st)
	}
}

// TestResilientBreakerOpensOnDeadOrigin drives sessions at an origin that was
// never reachable: after FailureThreshold consecutive failures the per-origin
// breaker opens and later fetches fail fast instead of dialing, while every
// session still completes (degraded 502 objects, not hung pages).
func TestResilientBreakerOpensOnDeadOrigin(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := origin.Addr()
	origin.Close() // nothing listens here any more

	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  deadAddr,
		Sched:       sched.ConfigIND,
		QuietPeriod: 100 * time.Millisecond,
		FixedRandom: true,
		Resilience: resilience.Policy{
			Timeout:          time.Second,
			MaxRetries:       0,
			FailureThreshold: 2,
			OpenFor:          10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	for i := 0; i < 3; i++ {
		client, err := Dial(proxy.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.RequestPage(mainURL, "", ""); err != nil {
			client.Close()
			t.Fatal(err)
		}
		if _, err := client.WaitComplete(15 * time.Second); err != nil {
			client.Close()
			t.Fatalf("session %d: %v", i, err)
		}
		client.Close()
	}
	rs := proxy.ResilienceStats()
	if rs.BreakerOpens == 0 {
		t.Errorf("breaker never opened against a dead origin: %+v", rs)
	}
	if rs.BreakerFastFails == 0 {
		t.Errorf("no fast-fails recorded on the open breaker: %+v", rs)
	}
}

// TestResilientPolicyValidation rejects a bad policy at StartProxy time.
func TestResilientPolicyValidation(t *testing.T) {
	defer leakcheck.Check(t)()
	_, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr: "127.0.0.1:1",
		Sched:      sched.ConfigIND,
		Resilience: resilience.Policy{Timeout: -time.Second},
	})
	if err == nil {
		t.Fatal("StartProxy accepted a negative resilience timeout")
	}
}
