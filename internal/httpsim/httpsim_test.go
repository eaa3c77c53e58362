package httpsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/dnssim"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/simnet"
)

type fixture struct {
	sim      *eventsim.Simulator
	net      *simnet.Network
	client   *Client
	server   *Server
	clientH  *simnet.Host
	originH  *simnet.Host
	resolver *dnssim.Resolver
}

func newFixture(t *testing.T, store Store, maxConns int) *fixture {
	t.Helper()
	sim := eventsim.New(1)
	n := simnet.New(sim)
	clientH := n.AddHost("client", simnet.HostConfig{DownlinkBps: 1e6, UplinkBps: 250e3})
	originH := n.AddHost("origin", simnet.HostConfig{})
	dnsH := n.AddHost("dns", simnet.HostConfig{})
	n.SetPath(clientH, originH, simnet.PathParams{RTT: 80 * time.Millisecond})
	n.SetPath(clientH, dnsH, simnet.PathParams{RTT: 70 * time.Millisecond})
	dnssim.NewServer(sim, dnsH, 0)
	resolver := dnssim.NewResolver(clientH, dnsH)
	server := NewServer(sim, originH, store, 0)
	dir := Directory{"example.com": originH}
	client := NewClient(sim, clientH, dir, resolver, maxConns)
	return &fixture{sim: sim, net: n, client: client, server: server, clientH: clientH, originH: originH, resolver: resolver}
}

func TestSplitURL(t *testing.T) {
	d, p := SplitURL("http://a.com/x/y.png")
	if d != "a.com" || p != "/x/y.png" {
		t.Fatalf("SplitURL = %q %q", d, p)
	}
	d, p = SplitURL("http://bare.com")
	if d != "bare.com" || p != "/" {
		t.Fatalf("SplitURL bare = %q %q", d, p)
	}
}

func TestSplitURLPanicsOnRelative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on relative URL")
		}
	}()
	SplitURL("/relative/path")
}

func TestGetReturnsBody(t *testing.T) {
	body := []byte("<html>hello</html>")
	f := newFixture(t, MapStore{"http://example.com/": {URL: "http://example.com/", ContentType: "text/html", Body: body}}, 6)
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Status != 200 {
		t.Fatalf("status = %d", got.Status)
	}
	if !bytes.Equal(got.Body, body) {
		t.Fatalf("body = %q", got.Body)
	}
	if got.ContentType != "text/html" {
		t.Fatalf("content type = %q", got.ContentType)
	}
}

func TestMissingObjectIs404(t *testing.T) {
	f := newFixture(t, MapStore{}, 6)
	var got Response
	f.client.Do(Request{Method: "GET", URL: "http://example.com/nope"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Status != 404 {
		t.Fatalf("status = %d, want 404", got.Status)
	}
}

func TestObjectStatusOverride(t *testing.T) {
	f := newFixture(t, MapStore{"http://example.com/gone": {Status: 204}}, 6)
	var got Response
	f.client.Do(Request{URL: "http://example.com/gone"}, func(r Response, at time.Duration) { got = r })
	f.sim.Run()
	if got.Status != 204 {
		t.Fatalf("status = %d, want 204", got.Status)
	}
}

func TestDNSAddsLatencyOnlyOnce(t *testing.T) {
	store := MapStore{}
	for i := 0; i < 2; i++ {
		u := fmt.Sprintf("http://example.com/%d", i)
		store[u] = Object{URL: u, Body: []byte("x")}
	}
	f := newFixture(t, store, 1)
	var t0, t1 time.Duration
	f.client.Do(Request{URL: "http://example.com/0"}, func(r Response, at time.Duration) { t0 = at })
	f.sim.Run()
	issued := f.sim.Now()
	f.client.Do(Request{URL: "http://example.com/1"}, func(r Response, at time.Duration) { t1 = at })
	f.sim.Run()
	if f.resolver.Lookups != 1 || f.resolver.Hits != 1 {
		t.Fatalf("lookups=%d hits=%d", f.resolver.Lookups, f.resolver.Hits)
	}
	// First request pays DNS (70ms) + handshake (80ms) + req/rsp (80ms).
	if t0 < 225*time.Millisecond {
		t.Fatalf("first response at %v, want > 225ms", t0)
	}
	// Second reuses conn and cache: about one RTT after issued.
	if d := t1 - issued; d > 100*time.Millisecond {
		t.Fatalf("second response took %v after issue, want ≈ 1 RTT", d)
	}
}

func TestConnectionCapRespected(t *testing.T) {
	store := MapStore{}
	for i := 0; i < 20; i++ {
		u := fmt.Sprintf("http://example.com/%d", i)
		store[u] = Object{URL: u, Body: bytes.Repeat([]byte("a"), 5000)}
	}
	f := newFixture(t, store, 6)
	var done int
	for i := 0; i < 20; i++ {
		f.client.Do(Request{URL: fmt.Sprintf("http://example.com/%d", i)}, func(r Response, at time.Duration) { done++ })
	}
	f.sim.Run()
	if done != 20 {
		t.Fatalf("completed %d, want 20", done)
	}
	if got := f.client.OpenConns("example.com"); got != 6 {
		t.Fatalf("OpenConns = %d, want 6", got)
	}
	if f.client.ConnsOpened != 6 {
		t.Fatalf("ConnsOpened = %d, want 6", f.client.ConnsOpened)
	}
}

func TestSingleConnSerializesRequests(t *testing.T) {
	store := MapStore{
		"http://example.com/a": {Body: []byte("a")},
		"http://example.com/b": {Body: []byte("b")},
	}
	f := newFixture(t, store, 1)
	var order []string
	f.client.Do(Request{URL: "http://example.com/a"}, func(r Response, at time.Duration) { order = append(order, "a") })
	f.client.Do(Request{URL: "http://example.com/b"}, func(r Response, at time.Duration) { order = append(order, "b") })
	f.sim.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestServerThinkTime(t *testing.T) {
	sim := eventsim.New(1)
	n := simnet.New(sim)
	clientH := n.AddHost("client", simnet.HostConfig{})
	originH := n.AddHost("origin", simnet.HostConfig{})
	n.SetPath(clientH, originH, simnet.PathParams{RTT: 10 * time.Millisecond})
	NewServer(sim, originH, MapStore{"http://example.com/": {Body: []byte("x")}}, 50*time.Millisecond)
	client := NewClient(sim, clientH, Directory{"example.com": originH}, nil, 6)
	var done time.Duration
	client.Do(Request{URL: "http://example.com/"}, func(r Response, at time.Duration) { done = at })
	sim.Run()
	// handshake 10ms + request 5ms + think 50ms + response 5ms ≈ 70ms
	if done < 70*time.Millisecond || done > 80*time.Millisecond {
		t.Fatalf("done at %v, want ≈ 70ms", done)
	}
}

func TestRequestCountTracked(t *testing.T) {
	f := newFixture(t, MapStore{"http://example.com/": {Body: []byte("x")}}, 6)
	for i := 0; i < 3; i++ {
		f.client.Do(Request{URL: "http://example.com/"}, func(Response, time.Duration) {})
	}
	f.sim.Run()
	if f.client.RequestsSent != 3 || f.server.Requests != 3 {
		t.Fatalf("client sent %d, server saw %d; want 3/3", f.client.RequestsSent, f.server.Requests)
	}
}

func TestPostCarriesBodySize(t *testing.T) {
	req := Request{Method: "POST", URL: "http://example.com/submit", BodySize: 5000}
	if req.WireSize() <= 5000 {
		t.Fatalf("WireSize = %d, want > body size", req.WireSize())
	}
}
