package parcelnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
)

// TestCrawlStopsAtTeardown: a page arms script timers for long after its
// client has gone. The session's teardown must stop the crawl — no timer
// left armed, no origin fetch on behalf of the dead session, nothing left
// running.
func TestCrawlStopsAtTeardown(t *testing.T) {
	defer leakcheck.Check(t)()
	const mainURL = "http://www.late.test/index.html"
	archive := replay.NewArchive()
	var script strings.Builder
	for i := 0; i < 4; i++ {
		u := fmt.Sprintf("http://www.late.test/late%d.png", i)
		fmt.Fprintf(&script, "setTimeout(%d, function() { fetch(%q); });\n", 200+50*i, u)
		archive.Record(httpsim.Object{URL: u, ContentType: "image/png", Body: []byte("late")})
	}
	archive.Record(httpsim.Object{URL: mainURL, ContentType: "text/html",
		Body: []byte("<html><body><script>" + script.String() + "</script></body></html>")})

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
	defer proxy.Close()
	client, err := Dial(proxy.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RequestPage(mainURL, "parcel-test/1.0", ""); err != nil {
		t.Fatal(err)
	}

	// Wait until the main document has been crawled and its timers armed,
	// then hang up well before the first one is due.
	var crawl *crawler
	waitFor(t, 5*time.Second, func() bool {
		for _, s := range proxy.activeSessions() {
			s.mu.Lock()
			crawl = s.crawl
			s.mu.Unlock()
		}
		if crawl == nil {
			return false
		}
		crawl.mu.Lock()
		defer crawl.mu.Unlock()
		return len(crawl.timers) == 4
	})
	client.Close()
	waitFor(t, 5*time.Second, func() bool {
		crawl.mu.Lock()
		defer crawl.mu.Unlock()
		return crawl.stopped
	})
	crawl.mu.Lock()
	armed := len(crawl.timers)
	crawl.mu.Unlock()
	if armed != 0 {
		t.Fatalf("%d crawl timers still armed after teardown", armed)
	}

	before := origin.Requests()
	time.Sleep(500 * time.Millisecond) // every timer would have fired by now
	if after := origin.Requests(); after != before {
		t.Fatalf("origin served %d requests for a torn-down session", after-before)
	}
	// A stopped crawl takes no new requests, and stopping again is harmless.
	crawl.Request("http://www.late.test/late0.png", false, 1)
	crawl.stop()
	crawl.mu.Lock()
	_, requested := crawl.requested["http://www.late.test/late0.png"]
	crawl.mu.Unlock()
	if requested {
		t.Fatal("stopped crawl accepted a request")
	}
}
