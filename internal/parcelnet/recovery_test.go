package parcelnet

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// fastRecovery keeps the reconnect budget cheap enough for tests.
func fastRecovery() ClientConfig {
	return ClientConfig{
		MaxRetries:  3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
}

// TestKillProxyDegradesToDirectOrigin is the headline robustness scenario:
// the proxy dies mid-push, the client burns its retry budget against the
// dead listener, degrades to DIR mode, and the page still completes with
// every object fetched straight from the origin — leaking nothing.
func TestKillProxyDegradesToDirectOrigin(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchiveAd(10 * time.Second)
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	// The 10 s ad, due inside the long quiet period, holds the page open: the
	// kill lands before completion.
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 30 * time.Second,
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRecovery()
	cfg.DirectOrigin = origin.Addr()
	client, err := DialConfig(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "parcel-test/1.0", ""); err != nil {
		t.Fatal(err)
	}
	// Let at least one object's stream finish, then pull the proxy out from
	// under the rest.
	waitFor(t, 5*time.Second, func() bool { return len(client.Objects()) > 0 })
	if err := proxy.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := client.WaitComplete(10 * time.Second); err != nil {
		t.Fatalf("degraded page did not complete: %v", err)
	}
	if !client.Degraded() {
		t.Fatal("client did not degrade after the proxy died")
	}
	for _, u := range archive.URLs() {
		p, err := client.Object(u, 5*time.Second)
		if err != nil {
			t.Fatalf("object %s unavailable in DIR mode: %v", u, err)
		}
		want, _ := archive.Get(u)
		if !bytes.Equal(p.Body, want.Body) {
			t.Fatalf("object %s corrupted", u)
		}
	}
	if client.Fallbacks == 0 || client.DirectFetches == 0 {
		t.Fatalf("degraded load recorded no fallbacks: fallbacks=%d direct=%d",
			client.Fallbacks, client.DirectFetches)
	}
	if client.Retries == 0 {
		t.Fatal("degradation happened without any reconnect attempts")
	}
	client.Close()
}

// TestReconnectResumesSession kills only the first client connection (netem
// KillAfterBytes) while the proxy stays up: the client must reconnect, resend
// the page request with its already-have manifest, and the proxy must push
// only what is missing — from the shared cache: across both connections the
// origin serves each object once.
func TestReconnectResumesSession(t *testing.T) {
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
	proxyAddr := proxy.Addr()
	var dials atomic.Int64
	cfg := fastRecovery()
	cfg.Dial = func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			// First connection dies 3 KB into the streams: past the settings
			// frame and the main document (~0.4 KB, crawled and streamed before
			// anything else exists), inside an image's data — CSS and script
			// are under 0.2 KB of frames and every image but the 3-byte pixel
			// is one chunk of 2.5 KB or more.
			return netem.Wrap(conn, netem.Params{KillAfterBytes: 3000}), nil
		}
		return conn, nil
	}
	client, err := DialConfig(proxyAddr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(15 * time.Second)
	if err != nil {
		t.Fatalf("resumed page did not complete: %v", err)
	}
	if client.Resumes == 0 {
		t.Fatal("connection kill did not trigger a session resume")
	}
	if client.Degraded() {
		t.Fatal("client degraded even though the proxy was reachable")
	}
	if note.ObjectsSkipped == 0 {
		t.Fatalf("resumed session re-pushed everything: %+v (objects held before resume should be skipped)", note)
	}
	if got := int(origin.Requests()); got != archive.Len() {
		t.Errorf("origin served %d requests over both connections, want %d (the resumed crawl is cache hits)", got, archive.Len())
	}
	for _, u := range archive.URLs() {
		p, err := client.Object(u, 5*time.Second)
		if err != nil {
			t.Fatalf("missing %s after resume: %v", u, err)
		}
		want, _ := archive.Get(u)
		if !bytes.Equal(p.Body, want.Body) {
			t.Fatalf("object %s corrupted across the resume", u)
		}
	}
	client.Close()
}

// TestProxySessionTeardownOnDisconnect covers the proxy side: a client that
// vanishes mid-push must leave no active session, no armed quiet timer, and
// no goroutines behind.
func TestProxySessionTeardownOnDisconnect(t *testing.T) {
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
		QuietPeriod: 30 * time.Second, // never fires; teardown must stop it
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cfg := fastRecovery()
	cfg.MaxRetries = -1 // vanish for good: no reconnect
	client, err := DialConfig(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(client.Objects()) > 0 })
	if got := proxy.Sessions(); got != 1 {
		t.Fatalf("active sessions = %d mid-page, want 1", got)
	}
	client.Close()
	waitFor(t, 5*time.Second, func() bool { return proxy.Sessions() == 0 })
	if served := proxy.SessionsServed(); served != 1 {
		t.Fatalf("sessions served = %d, want 1", served)
	}
}

// TestIdleTimeoutReapsSession: a connected client that never sends a frame is
// reaped once the idle deadline passes.
func TestIdleTimeoutReapsSession(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, _ := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		IdleTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	conn, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, 2*time.Second, func() bool { return proxy.Sessions() == 1 })
	waitFor(t, 2*time.Second, func() bool { return proxy.Sessions() == 0 })
}

// TestClosedClientReturnsDistinctError: a closed client fails immediately
// with ErrClosed, not a bare timeout, for whatever it had not received, and
// still serves what it had. Close races the pushes in flight, so the test
// asks only for what it can know: the part it waited for, a URL no page
// delivers, and the completion of a page that was never requested.
func TestClosedClientReturnsDistinctError(t *testing.T) {
	proxyAddr, mainURL, _ := startStack(t, sched.ConfigIND)
	client, err := Dial(proxyAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Object(mainURL, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	idle, err := Dial(proxyAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	idle.Close()
	start := time.Now()
	if p, err := client.Object(mainURL, 10*time.Second); err != nil || len(p.Body) == 0 {
		t.Fatalf("Object received before Close: %d bytes, err %v", len(p.Body), err)
	}
	if _, err := client.Object("http://www.shop.test/never-pushed.jpg", 10*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Object on closed client: %v, want ErrClosed", err)
	}
	if _, err := idle.WaitComplete(10 * time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitComplete on closed client: %v, want ErrClosed", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("closed client waited out the timeout instead of failing fast")
	}
}

// TestProxyGoneWithoutFallbackFailsDistinctly: retries exhausted and no
// DirectOrigin configured → ErrProxyGone, not a timeout.
func TestProxyGoneWithoutFallbackFailsDistinctly(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchiveAd(10 * time.Second) // holds the page open past the kill
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigIND,
		QuietPeriod: 30 * time.Second,
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastRecovery()
	cfg.MaxRetries = 2
	client, err := DialConfig(proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "", ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return len(client.Objects()) > 0 })
	proxy.Close()
	if _, err := client.WaitComplete(10 * time.Second); !errors.Is(err, ErrProxyGone) {
		t.Fatalf("WaitComplete after proxy death: %v, want ErrProxyGone", err)
	}
	if _, err := client.Object("http://www.shop.test/hero.jpg", time.Second); err != nil {
		// hero.jpg may or may not have arrived before the kill; if it did not,
		// the error must be the distinct one.
		if !errors.Is(err, ErrProxyGone) {
			t.Fatalf("Object after proxy death: %v, want ErrProxyGone", err)
		}
	}
	client.Close()
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
