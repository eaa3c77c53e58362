package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/parcel-go/parcel/internal/netem"
	"github.com/parcel-go/parcel/internal/parcelnet"
	"github.com/parcel-go/parcel/internal/replay"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/webgen"
)

const (
	// quietPeriod is the proxy's §4.5 completion window, pinned below the
	// smallest generated page timer (200 ms) so the pushed set is exactly
	// the onload + async set on every run. Every plt_* contains it.
	quietPeriod = 25 * time.Millisecond
	// loadTimeout bounds one session's wait for completion; holdTimeout
	// bounds the wait for any reference object the push missed (the §4.5
	// fallback request), which is part of the load and of its plt.
	loadTimeout = 30 * time.Second
	holdTimeout = 5 * time.Second
)

// tcpWorkload drives K closed-loop clients over loopback through one
// parcelnet.Proxy and one replay origin, all in this process.
type tcpWorkload struct {
	sz         sizing
	cacheBytes int64
	// lte shapes every measured client connection with sz.link; the
	// warm-up pass that fills the cache stays unshaped.
	lte bool

	pages  []webgen.Page
	origin *parcelnet.Origin
	proxy  *parcelnet.Proxy
	// refs[i] is page i's reference set: what the warm-up pass delivered,
	// with the bytes the replay archive holds for each URL.
	refs []map[string][]byte

	// psock counts the proxy side of every session accepted while traced.
	psock  sockStats
	traced atomic.Bool
}

func (w *tcpWorkload) pageSet() []webgen.Page { return w.pages }

func (w *tcpWorkload) setup(seed int64) error {
	w.pages = pickPages(webgen.Generate(webgen.Spec{Seed: seed, NumPages: w.sz.pages * 3 / 2}), w.sz.pages)
	store := replay.Rewriting{Store: replay.FromPages(w.pages...)}
	origin, err := parcelnet.StartOrigin("127.0.0.1:0", store)
	if err != nil {
		return fmt.Errorf("start origin: %w", err)
	}
	w.origin = origin
	proxy, err := parcelnet.StartProxy("127.0.0.1:0", parcelnet.ProxyConfig{
		OriginAddr:  origin.Addr(),
		Sched:       sched.ConfigONLD,
		QuietPeriod: quietPeriod,
		FixedRandom: true,
		CacheBytes:  w.cacheBytes,
		WrapConn: func(c net.Conn) net.Conn {
			if !w.traced.Load() {
				return c
			}
			return &countingConn{Conn: c, st: &w.psock, timed: true}
		},
	})
	if err != nil {
		w.close()
		return fmt.Errorf("start proxy: %w", err)
	}
	w.proxy = proxy

	// Warm-up: one unshaped pass over the page set fills pools, parser and
	// compile caches and the object cache, and records each page's
	// reference set.
	w.refs = make([]map[string][]byte, len(w.pages))
	errs := make([]error, len(w.pages))
	w.eachClient(func(c int) {
		for pi := c; pi < len(w.pages); pi += clients() {
			w.refs[pi], errs[pi] = w.reference(store, pi)
		}
	})
	for _, err := range errs {
		if err != nil {
			w.close()
			return err
		}
	}
	return nil
}

func (w *tcpWorkload) close() {
	if w.proxy != nil {
		w.proxy.Close()
		w.proxy = nil
	}
	if w.origin != nil {
		w.origin.Close()
		w.origin = nil
	}
}

// meanPageBytes is webgen's long-run mean page size. A seed's 34 pages
// total 15 % more or less than 34 of these, and a load on this arm is a
// fixed 25 ms quiet period plus work that grows with its bytes, so neither
// per-load nor per-MB figures would sit still across seeds. pickPages pins
// the set's total instead.
const meanPageBytes = 1_900_000

// pickPages returns n of the pool's pages, in pool order, whose bodies total
// as near n × meanPageBytes as swapping one chosen page for one left out can
// bring them. Which pages those are, and everything in them, is the seed's.
func pickPages(pool []webgen.Page, n int) []webgen.Page {
	if n >= len(pool) {
		return pool
	}
	in := make([]bool, len(pool))
	gap := -int64(n) * meanPageBytes // chosen bytes minus target
	for i := 0; i < n; i++ {
		in[i] = true
		gap += pool[i].TotalBytes
	}
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	for {
		out, add, best := -1, -1, abs(gap)
		for i := range pool {
			for j := range pool {
				if in[i] && !in[j] {
					if g := abs(gap - pool[i].TotalBytes + pool[j].TotalBytes); g < best {
						out, add, best = i, j, g
					}
				}
			}
		}
		if out < 0 {
			break
		}
		in[out], in[add] = false, true
		gap += pool[add].TotalBytes - pool[out].TotalBytes
	}
	picked := make([]webgen.Page, 0, n)
	for i, p := range pool {
		if in[i] {
			picked = append(picked, p)
		}
	}
	return picked
}

// eachClient runs fn on K goroutines and waits for them.
func (w *tcpWorkload) eachClient(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// session is one page load over TCP and everything observed about it.
type session struct {
	client *parcelnet.Client
	sock   sockStats // client side of the connection
	dialed time.Time
	// requested and held bracket the load proper: request sent, and every
	// reference object in the client's store.
	requested, held time.Time
	parts           map[string][]byte
}

// open dials the proxy, requests page pi and waits until the completion
// note has arrived. The caller closes s.client.
func (w *tcpWorkload) open(pi int, shaped bool, tr *tracer, root int, id int64) (*session, error) {
	s := &session{}
	dial := func(network, addr string) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if shaped {
			conn = netem.Wrap(conn, w.sz.link)
		}
		return &countingConn{Conn: conn, st: &s.sock}, nil
	}
	s.dialed = time.Now()
	sp := tr.begin("parcelnet.dial", root, id)
	client, err := parcelnet.DialConfig(w.proxy.Addr(), parcelnet.ClientConfig{
		Dial:         dial,
		DirectOrigin: w.origin.Addr(),
		Mux:          true,
	})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	s.client = client
	s.requested = time.Now()
	sp = tr.begin("parcelnet.request_page", root, id)
	err = client.RequestPage(w.pages[pi].MainURL, "parcel-bench", "1280x800")
	tr.end(sp)
	if err != nil {
		return s, fmt.Errorf("request: %w", err)
	}
	sp = tr.begin("parcelnet.wait_complete", root, id)
	_, err = client.WaitComplete(loadTimeout)
	tr.end(sp)
	if err != nil {
		return s, fmt.Errorf("wait: %w", err)
	}
	return s, nil
}

// hold waits until the client holds every URL of the reference set and keeps
// the bodies for verification.
func (s *session) hold(urls map[string][]byte) error {
	s.parts = make(map[string][]byte, len(urls))
	for url := range urls {
		part, err := s.client.Object(url, holdTimeout)
		if err != nil {
			return fmt.Errorf("hold %s: %w", url, err)
		}
		s.parts[url] = part.Body
	}
	s.held = time.Now()
	return nil
}

// reference loads page pi once and returns its reference set: every URL the
// session delivered, mapped to the bytes the archive serves for it.
func (w *tcpWorkload) reference(store replay.Rewriting, pi int) (map[string][]byte, error) {
	s, err := w.open(pi, false, nil, -1, 0)
	if s != nil && s.client != nil {
		defer s.client.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", w.pages[pi].Name, err)
	}
	ref := map[string][]byte{}
	for _, url := range s.client.Objects() {
		// The replay origin answers plain HTTP only: a page's https beacons
		// arrive as 404 parts (clients fetch those directly, §4.5). They are
		// not page content the proxy delivered, so not part of the set.
		if part, err := s.client.Object(url, 0); err != nil || part.Status >= 400 {
			continue
		}
		obj, ok := store.Get(url)
		if !ok {
			return nil, fmt.Errorf("warm-up %s: delivered %s, which the archive does not hold", w.pages[pi].Name, url)
		}
		ref[url] = obj.Body
	}
	if _, ok := ref[w.pages[pi].MainURL]; !ok {
		return nil, fmt.Errorf("warm-up %s: main document not delivered", w.pages[pi].Name)
	}
	return ref, nil
}

// tcpTotals accumulates one client's loads; the K of them merge afterwards.
type tcpTotals struct {
	win                           window
	objects, sockReads, fallbacks int64
	originKB                      float64
}

func (w *tcpWorkload) measure(d time.Duration, tr *tracer) window {
	w.traced.Store(tr != nil)
	defer w.traced.Store(false)
	psock0 := [3]int64{w.psock.writes.Load(), w.psock.writeBytes.Load(), w.psock.writeWaitNs.Load()}
	origin0, cache0 := w.origin.Requests(), w.proxy.CacheStats()
	deferred0, shed0 := w.proxy.DeferredTotal(), w.proxy.ShedTotal()

	// Closed loop: client c loads page (c + i·K) mod P on its i-th
	// iteration and starts the next load only when this one is verified.
	totals := make([]tcpTotals, clients())
	deadline := time.Now().Add(d)
	w.eachClient(func(c int) {
		t := &totals[c]
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			pi := (c + i*clients()) % len(w.pages)
			w.load(t, pi, int64(i*clients()+c), tr)
		}
	})

	win := window{scoped: map[string]float64{}}
	var sum tcpTotals
	for i := range totals {
		t := &totals[i]
		win.attempted += t.win.attempted
		win.failed += t.win.failed
		if win.failure == "" {
			win.failure = t.win.failure
		}
		win.plt = append(win.plt, t.win.plt...)
		win.ttfc = append(win.ttfc, t.win.ttfc...)
		win.wireBytes += t.win.wireBytes
		win.bodyBytes += t.win.bodyBytes
		win.pltSum += t.win.pltSum
		sum.objects += t.objects
		sum.sockReads += t.sockReads
		sum.originKB += t.originKB
		sum.fallbacks += t.fallbacks
	}
	win.pltBytes = win.bodyBytes
	n := win.attempted
	cache := w.proxy.CacheStats()
	lookups := float64(cache.Hits - cache0.Hits + cache.Misses - cache0.Misses)
	sc := win.scoped
	if lookups > 0 {
		sc["objcache.hit_rate"] = float64(cache.Hits-cache0.Hits) / lookups
	}
	sc["objcache.evictions_per_load"] = per(float64(cache.Evictions-cache0.Evictions), n)
	sc["objcache.shared_per_load"] = per(float64(cache.Shared-cache0.Shared), n)
	sc["parcelnet.origin_requests_per_load"] = per(float64(w.origin.Requests()-origin0), n)
	sc["parcelnet.origin_kb_per_load"] = per(sum.originKB, n)
	sc["parcelnet.objects_per_load"] = per(float64(sum.objects), n)
	sc["parcelnet.fallbacks_per_load"] = per(float64(sum.fallbacks), n)
	sc["parcelnet.deferred_per_load"] = per(float64(w.proxy.DeferredTotal()-deferred0), n)
	sc["parcelnet.shed_per_load"] = per(float64(w.proxy.ShedTotal()-shed0), n)
	sc["parcelnet.sock_reads_per_load"] = per(float64(sum.sockReads), n)
	if win.bodyBytes > 0 {
		sc["parcelnet.wire_overhead_pct"] = 100 * (float64(win.wireBytes)/float64(win.bodyBytes) - 1)
	}
	if w.lte && win.pltSum > 0 {
		sc["netem.link_utilisation"] = float64(win.wireBytes) / (win.pltSum.Seconds() * float64(w.sz.link.Bps))
	}
	if tr != nil {
		writes := w.psock.writes.Load() - psock0[0]
		sc["parcelnet.sock_writes_per_load"] = per(float64(writes), n)
		if writes > 0 {
			sc["parcelnet.sock_kb_per_write"] = float64(w.psock.writeBytes.Load()-psock0[1]) / 1e3 / float64(writes)
		}
		sc["parcelnet.sock_write_wait_us_per_load"] = per(float64(w.psock.writeWaitNs.Load()-psock0[2])/1e3, n)
	}
	return win
}

// load runs one closed-loop iteration: open the session, hold the reference
// set, stop the clock, verify the bytes.
func (w *tcpWorkload) load(t *tcpTotals, pi int, id int64, tr *tracer) {
	t.win.attempted++
	root := tr.begin("load", -1, id)
	defer tr.end(root)
	s, err := w.open(pi, w.lte, tr, root, id)
	if s != nil && s.client != nil {
		defer s.client.Close()
	}
	if err == nil {
		sp := tr.begin("bench.hold", root, id)
		err = s.hold(w.refs[pi])
		tr.end(sp)
	}
	if err != nil {
		t.win.fail("%s: %v", w.pages[pi].Name, err)
		return
	}
	sp := tr.begin("bench.verify", root, id)
	err = verifyParts(s.parts, w.refs[pi])
	tr.end(sp)
	if err != nil {
		t.win.fail("%s: %v", w.pages[pi].Name, err)
		return
	}

	sl := s.client.SessionLoad(int(id))
	plt := s.held.Sub(s.dialed)
	t.win.plt = append(t.win.plt, ms(plt))
	t.win.pltSum += plt
	if sl.FirstCritical > 0 {
		t.win.ttfc = append(t.win.ttfc, ms(sl.FirstCritical))
	}
	t.win.wireBytes += s.sock.readBytes.Load()
	for _, body := range s.parts {
		t.win.bodyBytes += int64(len(body))
	}
	t.objects += int64(len(s.client.Objects()))
	t.sockReads += s.sock.reads.Load()
	t.originKB += float64(sl.OriginBytes) / 1e3
	t.fallbacks += int64(s.client.Fallbacks)
	if first, ok := s.sock.firstRead(); ok {
		tr.add("parcelnet.first_byte", root, id, s.requested, first)
	}
}
