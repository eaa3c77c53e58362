package parcelnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"regexp"
	"sort"
	"strconv"
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
// delivered before the completion note and the URLs pushed in all, the
// session's push/skip books for that load, and how many completion notes the
// client saw.
type armLoad struct {
	Nth             int // 1 = first load, 2 = revisit
	Early           []string
	URLs            []string
	ObjectsPushed   int
	BytesPushed     int64
	Skipped         int
	CompletionsSeen int
	FallbacksSent   int
}

// TestArmsAgree runs every plain-http webgen page of seeds 1–2 through both
// drivers of sched.Session — first load, then a revisit with a full manifest
// (sim: Reload on the same connection; TCP: a new connection whose
// TPageRequest lists every object of the page) — and requires, load by load,
// the same URL set delivered before the completion note, exactly one
// completion, and, once both arms are quiescent, the same pushed URL set,
// BytesPushed and Skipped.
//
// Each page runs with a quiet period of a quarter of its first script timer
// on both arms. The sim arm waits that window out on its virtual clock; the
// TCP arm completes as soon as its crawl proves the window would elapse with
// nothing new. Equal early sets show the early completion pushes exactly what
// the window would have: on both arms every timer ad is a straggler.
//
// Pages with https objects are excluded: the sim proxy answers them 204 and
// the client fetches direct, the TCP proxy pushes the origin's 404 — a
// fetch-level drift (ROADMAP item 1), not a session one.
func TestArmsAgree(t *testing.T) {
	t.Cleanup(leakcheck.Check(t)) // registered first, so it runs last
	cfg := sched.ConfigONLD
	type pageRun struct {
		name string
		sim  [2]armLoad
		tcp  [2]*tcpLoad
	}
	// Each TCP load is started and read up to its completion note one at a
	// time, so no crawl races another for the CPU against its page's timers;
	// the waits for the timer ads then overlap.
	var runs []pageRun
	for seed := int64(1); seed <= 2; seed++ {
		for i, page := range webgen.Generate(webgen.Spec{Seed: seed, NumPages: 7}) {
			if page.HasHTTPS {
				continue
			}
			quiet := firstTimer(t, page) / 4
			r := pageRun{name: fmt.Sprintf("seed %d page %d (quiet period %v)", seed, i, quiet)}
			r.sim = simArm(t, page, cfg, quiet)
			origin, err := StartOrigin("127.0.0.1:0", page.Store())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { origin.Close() })
			proxy, err := StartProxy("127.0.0.1:0", ProxyConfig{
				OriginAddr: origin.Addr(), Sched: cfg, QuietPeriod: quiet, FixedRandom: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { proxy.Close() })
			r.tcp[0] = startTCPLoad(t, proxy, page.MainURL, 1, nil)
			r.tcp[1] = startTCPLoad(t, proxy, page.MainURL, 2, r.sim[0].URLs)
			runs = append(runs, r)
		}
	}
	for _, r := range runs {
		for i, sim := range r.sim {
			tcp := r.tcp[i].settle(t, sim.ObjectsPushed+sim.Skipped)
			if sim.CompletionsSeen != 1 || tcp.CompletionsSeen != 1 || sim.FallbacksSent != 0 || tcp.FallbacksSent != 0 {
				t.Errorf("%s, load %d: completions sim %d, TCP %d (want 1 each); fallback requests sim %d, TCP %d (want none)",
					r.name, sim.Nth, sim.CompletionsSeen, tcp.CompletionsSeen, sim.FallbacksSent, tcp.FallbacksSent)
			}
			if !reflect.DeepEqual(sim, tcp) {
				t.Errorf("%s, load %d: the arms disagree\nsim %+v\nTCP %+v", r.name, sim.Nth, sim, tcp)
			}
		}
	}
}

var timerDelay = regexp.MustCompile(`setTimeout\((\d+),`)

// firstTimer returns the delay of the earliest script timer on page.
func firstTimer(t *testing.T, page webgen.Page) time.Duration {
	t.Helper()
	var first time.Duration
	for _, o := range page.Objects {
		for _, m := range timerDelay.FindAllSubmatch(o.Body, -1) {
			ms, _ := strconv.Atoi(string(m[1]))
			if d := time.Duration(ms) * time.Millisecond; first == 0 || d < first {
				first = d
			}
		}
	}
	if first == 0 {
		t.Fatalf("%s arms no script timer", page.Name)
	}
	return first
}

// simArm loads page on the simulated arm, then revisits it, and reads both
// loads: each one's books and pushes less the first load's.
func simArm(t *testing.T, page webgen.Page, cfg sched.Config, quiet time.Duration) [2]armLoad {
	t.Helper()
	topo := scenario.Build(page, scenario.DefaultParams())
	pc := core.DefaultProxyConfig()
	pc.Sched, pc.QuietPeriod = cfg, quiet
	simProxy := core.StartProxy(topo, pc)
	simClient := core.NewClient(topo, core.DefaultClientConfig())
	read := func(since armLoad) armLoad {
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
	// The first load runs event by event until the completion note reaches
	// the client, whose store is then the early set.
	simClient.Start()
	var early []string
	for seen := 0; early == nil && topo.Sim.Step(); seen = topo.ClientTrace.Len() {
		for _, p := range topo.ClientTrace.PacketsSince(seen) {
			if p.Kind == trace.KindData && p.Label == "ctl:complete" {
				early = simClient.Objects()
			}
		}
	}
	topo.Sim.Run()
	first := read(armLoad{})
	first.Early = early
	simClient.Reload()
	revisit := read(first)
	// The revisit's early set stays nil: with everything skipped (checked
	// here) it pushes nothing, before its completion or after.
	if first.ObjectsPushed != len(page.Objects) || revisit.Skipped != len(page.Objects) {
		t.Fatalf("%s: sim arm pushed %d then skipped %d of the page's %d objects", page.Name, first.ObjectsPushed, revisit.Skipped, len(page.Objects))
	}
	return [2]armLoad{first, revisit}
}

// tcpLoad is one page load through a TCP proxy, tapped on the client side.
type tcpLoad struct {
	nth    int
	proxy  *Proxy
	client *Client
	tap    *tapConn
	early  []string
}

// startTCPLoad requests url from proxy on a new connection — with have as
// its manifest — and returns once the completion note has been read.
func startTCPLoad(t *testing.T, proxy *Proxy, url string, nth int, have []string) *tcpLoad {
	t.Helper()
	l := &tcpLoad{nth: nth, proxy: proxy}
	client, err := DialConfig(proxy.Addr(), ClientConfig{Dial: func(network, addr string) (net.Conn, error) {
		conn, err := net.Dial(network, addr)
		l.tap = &tapConn{Conn: conn}
		return l.tap, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	l.client = client
	t.Cleanup(func() { client.Close() })
	req := PageRequest{URL: url, Have: have}
	client.mu.Lock()
	client.page, client.startedAt = &req, time.Now()
	client.mu.Unlock()
	if err := client.fw.WriteJSON(TPageRequest, req); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitComplete(15 * time.Second); err != nil {
		t.Fatalf("TCP load %d of %s: %v", nth, url, err)
	}
	l.early = l.tap.deliveredBeforeComplete()
	return l
}

// settle waits until the load is quiescent — the session has booked every
// object the crawl collects and the client holds every one of them that was
// pushed — and reads it.
func (l *tcpLoad) settle(t *testing.T, collected int) armLoad {
	t.Helper()
	var c sched.Counts
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		for _, s := range l.proxy.activeSessions() {
			if s.conn.RemoteAddr().String() == l.tap.LocalAddr().String() {
				s.mu.Lock()
				c = s.page.Counts
				s.mu.Unlock()
			}
		}
		if c.ObjectsPushed+c.Skipped == collected && len(l.client.Objects()) == c.ObjectsPushed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TCP load %d never settled: books %+v, client holds %d, want %d collected", l.nth, c, len(l.client.Objects()), collected)
		}
	}
	out := armLoad{Nth: l.nth, Early: l.early, ObjectsPushed: c.ObjectsPushed, BytesPushed: c.BytesPushed, Skipped: c.Skipped, FallbacksSent: l.client.Fallbacks}
	out.URLs = append(out.URLs, l.client.Objects()...) // nil when nothing was pushed, like the sim's
	sort.Strings(out.URLs)
	for _, typ := range l.tap.received() {
		if typ == TComplete {
			out.CompletionsSeen++
		}
	}
	return out
}

// deliveredBeforeComplete replays what the client read through a fresh
// stream assembler and returns, sorted, the URLs of the objects that arrived
// ahead of the completion note (nil for none, or no note).
func (c *tapConn) deliveredBeforeComplete() []string {
	c.mu.Lock()
	in := append([]byte(nil), c.in...)
	c.mu.Unlock()
	asm := newMuxAssembler(func(string) []byte { return nil })
	var urls []string
	for b := in; len(b) >= 5; {
		n := 5 + int(binary.BigEndian.Uint32(b[1:]))
		if len(b) < n {
			break
		}
		typ, payload := b[0], b[5:n]
		b = b[n:]
		var part *muxPart
		var err error
		switch typ {
		case TMuxSettings:
			err = asm.onSettings(payload)
		case TStreamOpen:
			part, err = asm.onOpen(payload)
		case TStreamData:
			part, _, err = asm.onData(payload)
		case TComplete:
			sort.Strings(urls)
			return urls
		}
		if err != nil {
			return nil
		}
		if part != nil {
			urls = append(urls, part.URL)
		}
	}
	return nil
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
