package parcelnet

import (
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/parcel-go/parcel/internal/core"
	"github.com/parcel-go/parcel/internal/leakcheck"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/trace"
	"github.com/parcel-go/parcel/internal/webgen"
)

// armLoad is what one page load looked like from outside a driver: the URLs
// pushed, the session's push/skip books for that load, and how many
// completion notes the client saw.
type armLoad struct {
	Nth             int // 1 = first load, 2 = revisit
	URLs            []string
	ObjectsPushed   int
	BytesPushed     int64
	Skipped         int
	CompletionsSeen int
	FallbacksSent   int
}

// TestArmsAgree runs one seeded webgen page through both drivers of
// sched.Session — first load, then a revisit with a full manifest (sim:
// Reload on the same connection; TCP: a new connection whose TPageRequest
// lists everything held) — and requires the same pushed URL set, BytesPushed
// and Skipped, and exactly one completion per load.
//
// The page is seed 1's page 6: 184 plain-http objects, one 480 ms timer ad.
// Pages with https objects are excluded: the sim proxy answers them 204 and
// the client fetches direct, the TCP proxy pushes the origin's 404 — a
// fetch-level drift (ROADMAP item 1), not a session one. Both arms are read
// once they are quiescent, so where the wall-clock quiet window falls against
// the timer ad (a straggler on one arm, not the other) cannot move the books.
func TestArmsAgree(t *testing.T) {
	defer leakcheck.Check(t)()
	page := webgen.Generate(webgen.Spec{Seed: 1, NumPages: 7})[6]
	cfg := sched.ConfigONLD

	// --- simulated arm
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := core.DefaultProxyConfig()
	pc.Sched = cfg
	simProxy := core.StartProxy(topo, pc)
	simClient := core.NewClient(topo, core.DefaultClientConfig())
	// simRead reports the load just finished: the session's cumulative books
	// less the first load's (zero when this is the first).
	simRead := func(since armLoad) armLoad {
		c := simProxy.Sessions[0].Counts()
		l := armLoad{
			Nth:           since.Nth + 1,
			ObjectsPushed: c.ObjectsPushed - since.ObjectsPushed, BytesPushed: c.BytesPushed - since.BytesPushed,
			Skipped:       c.Skipped - since.Skipped,
			FallbacksSent: simClient.Fallbacks - since.FallbacksSent,
		}
		held := make(map[string]bool, len(since.URLs))
		for _, u := range since.URLs {
			held[u] = true
		}
		for _, u := range simClient.Objects() {
			if !held[u] {
				l.URLs = append(l.URLs, u)
			}
		}
		for _, p := range topo.ClientTrace.PacketsSince(0) {
			if p.Kind == trace.KindData && p.Label == "ctl:complete" {
				l.CompletionsSeen++
			}
		}
		l.CompletionsSeen -= since.CompletionsSeen
		return l
	}
	simClient.Load()
	simFirst := simRead(armLoad{})
	simClient.Reload()
	simRevisit := simRead(simFirst)
	if simFirst.ObjectsPushed != len(page.Objects) || simRevisit.Skipped != len(page.Objects) {
		t.Fatalf("sim arm pushed %d then skipped %d of the page's %d objects", simFirst.ObjectsPushed, simRevisit.Skipped, len(page.Objects))
	}

	// --- TCP arm
	origin, err := StartOrigin("127.0.0.1:0", page.Store())
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()
	proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
		OriginAddr: origin.Addr(), Sched: cfg, QuietPeriod: 200 * time.Millisecond, FixedRandom: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	tcpLoad := func(nth int, have []string, collected int) armLoad {
		var tap *tapConn
		client, err := DialConfig(proxy.Addr(), ClientConfig{Dial: func(network, addr string) (net.Conn, error) {
			conn, err := net.Dial(network, addr)
			tap = &tapConn{Conn: conn}
			return tap, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		req := PageRequest{URL: page.MainURL, Have: have}
		client.mu.Lock()
		client.page, client.startedAt = &req, time.Now()
		client.mu.Unlock()
		if err := client.fw.WriteJSON(TPageRequest, req); err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitComplete(15 * time.Second); err != nil {
			t.Fatalf("TCP load %d: %v", nth, err)
		}
		// Quiescent: the session has booked every object the crawl collects
		// and the client holds every one of them that was pushed.
		var c sched.Counts
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			for _, s := range proxy.activeSessions() {
				if s.conn.RemoteAddr().String() == tap.LocalAddr().String() {
					s.mu.Lock()
					c = s.page.Counts
					s.mu.Unlock()
				}
			}
			if c.ObjectsPushed+c.Skipped == collected && len(client.Objects()) == c.ObjectsPushed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("TCP load %d never settled: books %+v, client holds %d, want %d collected", nth, c, len(client.Objects()), collected)
			}
		}
		l := armLoad{Nth: nth, ObjectsPushed: c.ObjectsPushed, BytesPushed: c.BytesPushed, Skipped: c.Skipped, FallbacksSent: client.Fallbacks}
		l.URLs = append(l.URLs, client.Objects()...) // nil when nothing was pushed, like the sim's
		sort.Strings(l.URLs)
		for _, typ := range tap.received() {
			if typ == TComplete {
				l.CompletionsSeen++
			}
		}
		return l
	}
	tcpFirst := tcpLoad(1, nil, simFirst.ObjectsPushed+simFirst.Skipped)
	tcpRevisit := tcpLoad(2, tcpFirst.URLs, simRevisit.ObjectsPushed+simRevisit.Skipped)

	for _, pair := range [][2]armLoad{{simFirst, tcpFirst}, {simRevisit, tcpRevisit}} {
		sim, tcp := pair[0], pair[1]
		if sim.CompletionsSeen != 1 || tcp.CompletionsSeen != 1 || sim.FallbacksSent != 0 || tcp.FallbacksSent != 0 {
			t.Errorf("load %d: completions sim %d, TCP %d (want 1 each); fallback requests sim %d, TCP %d (want none)",
				sim.Nth, sim.CompletionsSeen, tcp.CompletionsSeen, sim.FallbacksSent, tcp.FallbacksSent)
		}
		if !reflect.DeepEqual(sim, tcp) {
			t.Errorf("load %d: the arms disagree\nsim %+v\nTCP %+v", sim.Nth, sim, tcp)
		}
	}
}

// TestCompleteNoteWire pins the TComplete payload byte for byte: where the
// session keeps its counters must not show on the wire.
func TestCompleteNoteWire(t *testing.T) {
	s := &session{proxy: &Proxy{}, page: sched.NewSession(func([]sched.Item, sched.FlushReason) {}, 0)}
	s.sendCond = sync.NewCond(&s.mu)
	s.page.Counts = sched.Counts{
		ObjectsPushed: 1, BytesPushed: 2, Skipped: 3,
		CacheHits: 7, CacheMisses: 8, OriginRetries: 9, StaleServes: 10, OriginBytes: 11,
	}
	s.resumed, s.deferredSeen, s.shedSeen = 4, 5, 6
	s.stepLocked(sched.Step{Complete: true})
	const want = `{"objects_pushed":1,"bytes_pushed":2,"objects_skipped":3,"objects_resumed":4,` +
		`"objects_deferred":5,"objects_shed":6,"cache_hits":7,"cache_misses":8,` +
		`"origin_retries":9,"stale_serves":10,"origin_bytes":11}`
	if got := string(s.completeNote); got != want {
		t.Errorf("TComplete payload\n got %s\nwant %s", got, want)
	}
}
