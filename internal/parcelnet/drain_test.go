package parcelnet

import (
	"net"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestDrainIdleSessionHandsOff drains a proxy whose only session already
// completed its page: the session gets a TDrain notice with nothing pending,
// the client hangs up without treating it as a failure, and the drain returns
// with every goroutine gone.
func TestDrainIdleSessionHandsOff(t *testing.T) {
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
	if _, err := client.WaitComplete(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := proxy.Drain(2 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if proxy.Sessions() != 0 {
		t.Errorf("%d sessions registered after drain", proxy.Sessions())
	}
	if proxy.DrainedSessions() != 1 {
		t.Errorf("DrainedSessions = %d, want 1", proxy.DrainedSessions())
	}
	waitFor(t, 5*time.Second, func() bool {
		client.mu.Lock()
		defer client.mu.Unlock()
		return client.Drained == 1
	})
	load := client.SessionLoad(0)
	if !load.Completed {
		t.Error("completed session reads as failed after drain")
	}
	if !load.Drained {
		t.Error("SessionLoad does not tag the drain")
	}
}

// TestDrainMidPageResumesOnRestartedProxy drains the proxy out from under a
// live session (the page's own timer ad keeps it busy past the drain
// deadline), then restarts a proxy on the same address: the client folds the
// TDrain notice into its reconnect machinery and resumes the session with its
// manifest, so the page completes with zero lost objects.
func TestDrainMidPageResumesOnRestartedProxy(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchiveAd(2 * time.Second)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	// The 2 s ad is due inside the quiet window, so the crawl is not
	// quiescent and the session stays busy until the ad is fetched: the drain
	// deadline expires first and the mid-page handoff path runs.
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: time.Hour,
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := proxy.Addr()

	client, err := DialConfig(addr, ClientConfig{MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	// Let the push phase land something first so the resume manifest is real.
	waitFor(t, 10*time.Second, func() bool { return len(client.Objects()) > 0 })

	if err := proxy.Drain(200 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	proxy.Close()

	proxy2, err := StartProxy(addr, ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
	})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer proxy2.Close()

	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatalf("page never completed after drain/restart: %v", err)
	}
	client.mu.Lock()
	drained, resumes := client.Drained, client.Resumes
	client.mu.Unlock()
	if drained != 1 {
		t.Errorf("Drained = %d, want 1", drained)
	}
	if resumes == 0 {
		t.Error("session never resumed on the restarted proxy")
	}
	if note.ObjectsSkipped == 0 {
		t.Error("resume manifest skipped nothing: the handoff re-pushed everything")
	}
	for _, u := range archive.URLs() {
		if _, err := client.Object(u, 10*time.Second); err != nil {
			t.Fatalf("object %s lost across the drain: %v", u, err)
		}
	}
	if !client.SessionLoad(0).Drained {
		t.Error("SessionLoad does not tag the drain")
	}
}

// TestDrainMidPageFallsBackToDirect is the no-restart arm: the proxy drains
// away mid-page and never comes back, so the reconnect budget burns out and
// the client degrades to its direct-origin path — the page still completes in
// full.
func TestDrainMidPageFallsBackToDirect(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchiveAd(2 * time.Second)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: time.Hour, // the 2 s ad inside it keeps the session mid-page
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	client, err := DialConfig(proxy.Addr(), ClientConfig{
		MaxRetries:   2,
		BackoffBase:  10 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
		DirectOrigin: origin.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return len(client.Objects()) > 0 })

	if err := proxy.Drain(100 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	proxy.Close()

	if _, err := client.WaitComplete(15 * time.Second); err != nil {
		t.Fatalf("drained client never completed: %v", err)
	}
	if !client.Degraded() {
		t.Error("client did not degrade with the proxy gone for good")
	}
	for _, u := range archive.URLs() {
		if _, err := client.Object(u, 10*time.Second); err != nil {
			t.Fatalf("object %s lost: %v", u, err)
		}
	}
	load := client.SessionLoad(0)
	if !load.Completed || !load.Drained {
		t.Errorf("want completed+drained sample, got %+v", load)
	}
}

// TestShedToDirectUnderMuxStreams pins admission control's shed path while
// mux streams are live: the client's link is gated shut, so early streams sit
// open with unsent bytes while the session budget parks the rest; completion
// sheds the parked tail to the client's direct-origin path. Deterministic —
// the gate, not kernel buffers, decides what is in flight when the shed
// happens.
func TestShedToDirectUnderMuxStreams(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := bigArchive(8, 32<<10)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	g := newGate()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:        origin.Addr(),
		Sched:             sched.ConfigIND,
		QuietPeriod:       300 * time.Millisecond,
		SessionPushBudget: 48 << 10, // roughly the shell plus one image
		WrapConn:          func(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	defer g.Open()

	client, err := DialConfig(proxy.Addr(), ClientConfig{DirectOrigin: origin.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}

	// With the gate shut nothing reaches the client, so the shed must happen
	// while the admitted streams are still live (unsent bytes queued).
	waitFor(t, 10*time.Second, func() bool { return proxy.ShedTotal() > 0 })
	live := 0
	for _, s := range proxy.activeSessions() {
		s.mu.Lock()
		live += s.mux.live
		s.mu.Unlock()
	}
	if live == 0 {
		t.Error("shed happened with no live mux streams: the gate did not hold them open")
	}

	g.Open()
	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if note.ObjectsShed == 0 {
		t.Fatalf("nothing shed: %+v", note)
	}
	if note.ObjectsPushed == 0 {
		t.Fatalf("nothing pushed: the test wants shed and live streams to coexist: %+v", note)
	}
	for _, u := range archive.URLs() {
		if _, err := client.Object(u, 10*time.Second); err != nil {
			t.Fatalf("shed object %s unreachable: %v", u, err)
		}
	}
	if client.DirectFetches == 0 {
		t.Error("no direct fetches despite shed objects and a configured origin")
	}
}
