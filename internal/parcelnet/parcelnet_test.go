package parcelnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// testArchive builds a small page with every discovery mechanism: HTML refs,
// CSS url(), sync JS fetch, a short (120 ms) timer ad, and a randomized URL.
func testArchive() (*replay.Archive, string) { return testArchiveAd(120 * time.Millisecond) }

// testArchiveAd is testArchive with its timer ad due after adDelay. A proxy
// whose quiet period is longer keeps the session mid-page until the ad is
// fetched: the crawl cannot prove quiescence while the timer is due inside
// the window.
func testArchiveAd(adDelay time.Duration) (*replay.Archive, string) {
	const main = "http://www.shop.test/index.html"
	a := replay.NewArchive()
	rec := func(url, ct, body string) {
		a.Record(httpsim.Object{URL: url, ContentType: ct, Body: []byte(body)})
	}
	rec(main, "text/html", `<!DOCTYPE html><html><head>
<link rel="stylesheet" href="/main.css">
<script src="http://cdn.shop.test/app.js"></script>
</head><body>
<script>
setTimeout(`+strconv.Itoa(int(adDelay.Milliseconds()))+`, function() { fetch("http://ads.test/late.png"); });
fetch("http://ads.test/pixel?r=" + rand(10));
</script>
<img src="/hero.jpg">
</body></html>`)
	rec("http://www.shop.test/main.css", "text/css", `body { background: url(/bg.png); }`)
	rec("http://www.shop.test/bg.png", "image/png", strings.Repeat("B", 4000))
	rec("http://www.shop.test/hero.jpg", "image/jpeg", strings.Repeat("H", 9000))
	rec("http://cdn.shop.test/app.js", "application/javascript", `fetch("http://cdn.shop.test/dyn.png");`)
	rec("http://cdn.shop.test/dyn.png", "image/png", strings.Repeat("D", 2500))
	rec("http://ads.test/late.png", "image/png", strings.Repeat("L", 1200))
	rec("http://ads.test/pixel?r=4", "image/gif", "PIX")
	return a, main
}

// startStack brings up origin + proxy and returns the proxy address plus a
// cleanup-registered origin.
func startStack(t *testing.T, cfg sched.Config) (proxyAddr, mainURL string, archive *replay.Archive) {
	t.Helper()
	archive, mainURL = testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       cfg,
		QuietPeriod: 300 * time.Millisecond,
		FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	return proxy.Addr(), mainURL, archive
}

func TestEndToEndPageLoad(t *testing.T) {
	proxyAddr, mainURL, archive := startStack(t, sched.ConfigIND)
	client, err := Dial(proxyAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.RequestPage(mainURL, "parcel-test/1.0", "720x1280"); err != nil {
		t.Fatal(err)
	}
	note, err := client.WaitComplete(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if note.ObjectsPushed != archive.Len() {
		t.Fatalf("pushed %d objects, archive has %d (received: %v)",
			note.ObjectsPushed, archive.Len(), client.Objects())
	}
	// Every archived object arrived, byte-exact.
	for _, u := range archive.URLs() {
		p, err := client.Object(u, time.Second)
		if err != nil {
			t.Fatalf("missing %s: %v", u, err)
		}
		want, _ := archive.Get(u)
		if !bytes.Equal(p.Body, want.Body) {
			t.Fatalf("object %s corrupted in transit", u)
		}
	}
	if client.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 under replay rewrite", client.Fallbacks)
	}
}

// tapConn records both directions of a client connection.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = append(c.in, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// sent returns the raw bytes written so far; received the types of the whole
// frames read so far.
func (c *tapConn) sent() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.out...)
}

func (c *tapConn) received() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var types []byte
	for b := c.in; len(b) >= 5; {
		n := 5 + int(binary.BigEndian.Uint32(b[1:]))
		if len(b) < n {
			break
		}
		types = append(types, b[0])
		b = b[n:]
	}
	return types
}

// TestZeroConfigIsTheMeasuredConfig: a proxy given only its origin and a
// client given nothing run the configuration bench/ measures — streams on the
// wire, the shared cache behind every fetch — and ClientConfig.Mux, which
// bench/ still sets, changes neither the request nor the answer.
func TestZeroConfigIsTheMeasuredConfig(t *testing.T) {
	defer leakcheck.Check(t)()
	archive, mainURL := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", replay.Rewriting{Store: archive})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{OriginAddr: origin.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Each session loads as far as the deepest discovery chain (document →
	// script → image); neither waits out the 2 s default quiet period.
	load := func(cfg ClientConfig) *tapConn {
		var tap *tapConn
		cfg.Dial = func(network, addr string) (net.Conn, error) {
			conn, err := net.Dial(network, addr)
			tap = &tapConn{Conn: conn}
			return tap, err
		}
		client, err := DialConfig(proxy.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if err := client.RequestPage(mainURL, "", ""); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Object("http://cdn.shop.test/dyn.png", 10*time.Second); err != nil {
			t.Fatal(err)
		}
		frames := tap.received()
		if frames[0] != TMuxSettings {
			t.Errorf("Mux=%v: first frame type %d, want TMuxSettings", cfg.Mux, frames[0])
		}
		for _, typ := range frames[1:] {
			if typ != TStreamOpen && typ != TStreamData {
				t.Errorf("Mux=%v: frame type %d among the streams: %v", cfg.Mux, typ, frames)
			}
		}
		client.mu.Lock()
		defer client.mu.Unlock()
		if client.FirstCriticalAt.IsZero() {
			t.Errorf("Mux=%v: FirstCriticalAt not set", cfg.Mux)
		}
		return tap
	}
	first := load(ClientConfig{})
	second := load(ClientConfig{Mux: true})
	if !bytes.Equal(first.sent(), second.sent()) {
		t.Errorf("ClientConfig.Mux changed the request:\n%q\n%q", first.sent(), second.sent())
	}
	if st := proxy.CacheStats(); st.Hits+st.Shared == 0 {
		t.Errorf("second session shared nothing: %+v", st)
	}
}

// heldStore serves an archive but blocks one URL's response until release is
// closed: the page's onload cannot fire while it is held.
type heldStore struct {
	httpsim.Store
	url     string
	release chan struct{}
}

func (h heldStore) Get(url string) (httpsim.Object, bool) {
	if url == h.url {
		<-h.release
	}
	return h.Store.Get(url)
}

// TestSchedReachesBundler is the one TCP assertion that ProxyConfig.Sched
// picks the release schedule: with an onload-blocking image held at the
// origin, IND has already streamed the main document while ONLD has released
// nothing. What each policy releases and when is sched's own suite
// (TestINDFlushesPerObject, TestONLDHoldsUntilOnload).
func TestSchedReachesBundler(t *testing.T) {
	run := func(cfg sched.Config, whileHeld func(c *Client, mainURL string)) {
		archive, mainURL := testArchive()
		held := heldStore{Store: replay.Rewriting{Store: archive}, url: "http://www.shop.test/hero.jpg", release: make(chan struct{})}
		origin, err := StartOrigin("127.0.0.1:0", held)
		if err != nil {
			t.Fatal(err)
		}
		defer origin.Close()
		proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
			OriginAddr: origin.Addr(), Sched: cfg, QuietPeriod: 300 * time.Millisecond, FixedRandom: true,
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
		whileHeld(client, mainURL)
		close(held.release)
		if _, err := client.WaitComplete(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got := len(client.Objects()); got != archive.Len() {
			t.Fatalf("%v: %d/%d objects after release", cfg, got, archive.Len())
		}
	}
	run(sched.ConfigIND, func(c *Client, mainURL string) {
		waitFor(t, 5*time.Second, func() bool { return c.Has(mainURL) })
	})
	run(sched.ConfigONLD, func(c *Client, _ string) {
		time.Sleep(150 * time.Millisecond) // IND's main document lands within a few ms
		if got := c.Objects(); len(got) != 0 {
			t.Fatalf("ONLD released %v before onload", got)
		}
	})
}

func TestFallbackFetchesUnknownObject(t *testing.T) {
	proxyAddr, mainURL, archive := startStack(t, sched.ConfigIND)
	// An object the page never references, but the archive serves.
	archive.Record(httpsim.Object{URL: "http://www.shop.test/secret.txt", ContentType: "text/plain", Body: []byte("s3cret")})
	client, err := Dial(proxyAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.RequestPage(mainURL, "", "")
	if _, err := client.WaitComplete(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := client.Object("http://www.shop.test/secret.txt", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Body) != "s3cret" {
		t.Fatalf("fallback body = %q", p.Body)
	}
	if client.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", client.Fallbacks)
	}
}

func TestMissingObjectTimesOutWith404(t *testing.T) {
	proxyAddr, mainURL, _ := startStack(t, sched.ConfigIND)
	client, err := Dial(proxyAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.RequestPage(mainURL, "", "")
	client.WaitComplete(10 * time.Second)
	p, err := client.Object("http://www.shop.test/never-existed", 5*time.Second)
	// The proxy fetches it, the origin 404s, and the client receives the
	// 404 part (not a timeout) — pages must not stall on missing objects.
	if err != nil {
		t.Fatalf("expected 404 part, got error %v", err)
	}
	if p.Status != 404 {
		t.Fatalf("status = %d, want 404", p.Status)
	}
}

func TestShapedDialStillCorrect(t *testing.T) {
	proxyAddr, mainURL, archive := startStack(t, sched.Config512K)
	shaped := func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return netem.Wrap(conn, netem.Params{Latency: 10 * time.Millisecond, Bps: 2 << 20}), nil
	}
	client, err := Dial(proxyAddr, shaped)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	client.RequestPage(mainURL, "", "")
	if _, err := client.WaitComplete(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(client.Objects()) != archive.Len() {
		t.Fatalf("received %d objects, want %d", len(client.Objects()), archive.Len())
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("shaping had no effect at all")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 0, 255}
	if err := WriteFrame(&buf, TObjectResponse, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TObjectResponse || !bytes.Equal(got, payload) {
		t.Fatalf("frame round-trip: typ=%d payload=%v", typ, got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{TObjectResponse, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
	if err := WriteFrame(&buf, TObjectResponse, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversize write accepted")
	}
}

func TestProxyRequiresOrigin(t *testing.T) {
	if _, err := StartProxy("127.0.0.1:0", ProxyConfig{}); err == nil {
		t.Fatal("proxy started without origin")
	}
}

func TestOriginServesByHostHeader(t *testing.T) {
	archive, _ := testArchive()
	origin, err := StartOrigin("127.0.0.1:0", archive)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	f := NewOriginFetcher(origin.Addr())
	body, ct, status, err := f.Fetch("http://cdn.shop.test/app.js")
	if err != nil || status != 200 {
		t.Fatalf("fetch: %v status=%d", err, status)
	}
	if !strings.Contains(string(body), "dyn.png") || !strings.Contains(ct, "javascript") {
		t.Fatalf("wrong object: ct=%q body=%q", ct, body)
	}
	_, _, status, err = f.Fetch("http://cdn.shop.test/nope")
	if err != nil || status != 404 {
		t.Fatalf("missing object: %v status=%d", err, status)
	}
}
