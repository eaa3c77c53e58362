package core

import (
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/eventsim"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/objcache"
	"github.com/parcel-go/parcel/internal/resilience"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/trace"
)

// ProxyConfig tunes the PARCEL proxy.
type ProxyConfig struct {
	// Sched is the bundle schedule (IND / PARCEL(X) / ONLD).
	Sched sched.Config
	// QuietPeriod is the post-onload proxy↔server inactivity window after
	// which the proxy declares the page complete (§4.5). The paper derives
	// it from the post-onload inter-arrival statistic (95% < 5 s).
	QuietPeriod time.Duration
	// CPU defaults to the proxy profile.
	CPU browser.CPUModel
	// FixedRandom applies the §7.3 replay rewrite inside the proxy's JS
	// engine.
	FixedRandom bool
	// ConnsPerDomain bounds the proxy's origin connection pools.
	ConnsPerDomain int
	// CompressionFactor, when in (0,1), scales pushed body bytes on the
	// wire — the orthogonal data-compression/transformation feature cloud
	// proxies offer (§3); 0 disables it.
	CompressionFactor float64
	// Cache, when non-nil, is the cross-session object cache shared by every
	// session this proxy serves: origin responses are published into it and
	// later sessions' fetches are served from it at proxy-local time, so a
	// fleet of tenants loading the same page pulls each object from the
	// origin once. nil (the default) fetches every object from the origin.
	Cache *objcache.Cache
	// Resilience is the internal/resilience discipline every origin fetch
	// runs under: per-attempt deadlines, jittered-backoff retries and a
	// per-origin circuit breaker — plus, with Cache set, serve-stale-on-error
	// and negative caching. Zero fields take the resilience defaults. The
	// retry backoff is the only RNG consumer and it draws strictly after a
	// failure, so the policy's values cannot move a fault-free run.
	Resilience resilience.Policy
}

// DefaultProxyConfig returns the evaluation defaults (IND schedule).
func DefaultProxyConfig() ProxyConfig {
	return ProxyConfig{
		Sched:          sched.ConfigIND,
		QuietPeriod:    3 * time.Second,
		CPU:            browser.ProxyCPU(),
		FixedRandom:    true,
		ConnsPerDomain: 6,
	}
}

// Proxy is a running PARCEL proxy: it accepts client connections on the
// topology's proxy host and serves one page session per connection.
type Proxy struct {
	topo *scenario.Topology
	cfg  ProxyConfig

	// Sessions lists per-connection session states (instrumentation).
	Sessions []*ProxySession

	// resil holds the per-origin circuit breakers.
	resil *resilience.Group
}

// Resilience exposes the proxy's breaker group for harness-level accounting.
func (p *Proxy) Resilience() *resilience.Group { return p.resil }

// StartProxy installs the proxy listener.
func StartProxy(topo *scenario.Topology, cfg ProxyConfig) *Proxy {
	if cfg.QuietPeriod == 0 {
		cfg.QuietPeriod = 3 * time.Second
	}
	if cfg.CPU == (browser.CPUModel{}) {
		cfg.CPU = browser.ProxyCPU()
	}
	if err := cfg.Resilience.Validate(); err != nil {
		panic("core: bad resilience policy: " + err.Error())
	}
	p := &Proxy{topo: topo, cfg: cfg, resil: resilience.NewGroup(cfg.Resilience)}
	topo.Proxy.Listen(func(c *simnet.Conn) {
		s := &ProxySession{proxy: p, conn: c}
		s.page = sched.NewSession(s.sendBundle, topo.Page.ObjectCount)
		p.Sessions = append(p.Sessions, s)
		c.OnMessage(topo.Proxy, s.onMessage)
	})
	return p
}

// ProxySession is the proxy's state for one client connection.
type ProxySession struct {
	proxy *Proxy
	conn  *simnet.Conn

	engine  *browser.Engine
	fetcher *proxyFetcher
	// page is the session policy this type drives.
	page *sched.Session

	// cache holds every object collected (for fallback requests).
	cache map[string]sched.Item
	// arrivals records cache insertions in arrival order. Simulation time is
	// monotone, so the slice is sorted by ArrivedAt by construction — it lets
	// DownloadTimeline build its series without re-sorting the cache.
	arrivals []arrival

	// quietTimer is the running quiet window and quietGen its generation
	// (Cancel is exact here, so it is always the last armed).
	quietTimer *eventsim.Event
	quietGen   int

	// instrumentation beyond Counts: bundle framing, clock readings, and
	// sim-only tallies (BreakerFastFails: fetches an open breaker refused).
	BundleLog        []sched.FlushReason
	BundlesSent      int
	OnloadAt         time.Duration
	CompleteAt       time.Duration
	SkippedHTTPS     int
	FallbacksSeen    int
	BreakerFastFails int
}

// Counts returns the session's accounting (cache counters need ProxyConfig.Cache).
func (s *ProxySession) Counts() sched.Counts { return s.page.Counts }

// proxyFetcher wraps the proxy's origin HTTP client, teeing every response
// into the session (bundling + cache) before the engine processes it.
type proxyFetcher struct {
	s      *ProxySession
	client *httpsim.Client
}

// Fetch is the engine's entry to the session's one origin-fetch procedure
// (resilient.go), after the HTTPS skip.
func (f *proxyFetcher) Fetch(url string, cb func(browser.Result)) {
	if isHTTPS(url) {
		// The proxy cannot parse encrypted traffic; the client fetches
		// these itself over the fallback path (§4.5).
		f.s.SkippedHTTPS++
		cb(browser.Result{URL: url, Status: 204, At: f.s.proxy.topo.Sim.Now()})
		return
	}
	f.fetch(url, toEngine, cb)
}

// toEngine is an engine fetch's continuation: the object is collected (kept
// for fallback requests and offered to the session) before the engine
// processes it; a failed fetch surfaces as a degraded object, not a hung page.
func toEngine(of *originFetch, it sched.Item, ok bool) {
	if s := of.f.s; ok {
		s.storeItem(it.URL, it)
		s.step(s.page.Collected(it))
	}
	of.cb(resultFromItem(it, it.ArrivedAt))
}

func (s *ProxySession) onMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case pageRequest:
		s.startPage(msg)
	case objectRequest:
		s.serveFallback(msg.URL)
	case postRequest:
		s.handlePost(msg)
	}
}

// startPage boots the headless engine for the requested URL. On a repeat
// request within the session (a revisit), the object cache and the mirror of
// what the client already holds persist, so only new content is pushed.
func (s *ProxySession) startPage(req pageRequest) {
	topo := s.proxy.topo
	cfg := s.proxy.cfg
	if s.cache == nil {
		// Sized for the page up front: a session collects roughly one entry
		// per page object, and growing a map re-hashes every entry.
		s.cache = make(map[string]sched.Item, topo.Page.ObjectCount)
		s.arrivals = make([]arrival, 0, topo.Page.ObjectCount)
	}
	s.page.StartPage(cfg.Sched, nil)
	if s.quietTimer != nil {
		s.quietTimer.Cancel()
		s.quietTimer = nil
	}
	httpClient := httpsim.NewClient(topo.Sim, topo.Proxy, topo.Dir, topo.ProxyResolver, cfg.ConnsPerDomain)
	httpClient.SetMaxTotalConns(64) // well-provisioned server pool (§4.3)
	s.fetcher = &proxyFetcher{s: s, client: httpClient}
	s.engine = browser.New(topo.Sim, s.fetcher, browser.Options{
		CPU:         cfg.CPU,
		FixedRandom: cfg.FixedRandom,
		ExecCache:   topo.ExecCache,
		JSPools:     topo.JSPools,
		Events: browser.Events{
			OnLoad: func(at time.Duration) {
				s.OnloadAt = at
				s.step(s.page.OnLoad())
			},
		},
	})
	s.engine.Load(req.URL)
}

// arrival is one cache insertion, remembered under its cache key.
type arrival struct {
	key string
	it  sched.Item
}

// storeItem inserts it into the cache under key and logs the arrival.
func (s *ProxySession) storeItem(key string, it sched.Item) {
	s.cache[key] = it
	s.arrivals = append(s.arrivals, arrival{key: key, it: it})
}

// DownloadTimeline returns the proxy-side cumulative download series: bytes
// collected from origin servers over time (the "PARCEL Proxy Timeline" curve
// of Figure 6a). The arrival log is already in time order, so no sort is
// needed; entries superseded by a later arrival of the same URL (a revisit
// re-fetch) are skipped, matching the cache's latest-wins contents.
func (s *ProxySession) DownloadTimeline() []trace.Point {
	points := make([]trace.Point, 0, len(s.arrivals))
	var total int64
	for _, a := range s.arrivals {
		if cur, ok := s.cache[a.key]; !ok || cur.ArrivedAt != a.it.ArrivedAt {
			continue
		}
		total += int64(len(a.it.Body))
		points = append(points, trace.Point{At: a.it.ArrivedAt, Bytes: total})
	}
	return points
}

// step carries out what the session asks for: restart the quiet window, or
// send the §4.5 completion note (the session has drained its schedule).
func (s *ProxySession) step(st sched.Step) {
	sim := s.proxy.topo.Sim
	if st.Quiet != 0 {
		if s.quietTimer != nil {
			s.quietTimer.Cancel()
		}
		s.quietGen = st.Quiet
		//parcelvet:allow pooldiscipline(Event handles are arena-backed and valid for the simulator's lifetime; the field only holds the handle so a superseding quiet timer can Cancel it)
		s.quietTimer = sim.ScheduleArgAt(sim.Now()+s.proxy.cfg.QuietPeriod, quietFired, s)
	}
	if st.Complete {
		s.CompleteAt = sim.Now()
		s.conn.Send(s.proxy.topo.Proxy, 160, completeNote{s.page.Counts}, labelComplete, nil)
	}
}

// quietFired is the quiet window's continuation (noclosure ScheduleArgAt idiom).
func quietFired(arg any) {
	s := arg.(*ProxySession)
	s.step(s.page.QuietFired(s.quietGen))
}

// sendBundle transmits one release of the session to the client.
func (s *ProxySession) sendBundle(items []sched.Item, reason sched.FlushReason) {
	s.BundlesSent++
	s.BundleLog = append(s.BundleLog, reason)
	msg := bundleMsg{Seq: s.BundlesSent, Reason: reason, Parts: items}
	size := msg.wireSize()
	if f := s.proxy.cfg.CompressionFactor; f > 0 && f < 1 {
		size = msg.compressedWireSize(f)
	}
	s.conn.Send(s.proxy.topo.Proxy, size, msg, labelBundle, nil)
}

// serveFallback answers a client fallback request from cache, or fetches the
// object from the origin if the proxy never saw it (e.g. a URL the client's
// JS derived differently, §4.5).
func (s *ProxySession) serveFallback(url string) {
	s.FallbacksSeen++
	if it, ok := s.cache[url]; ok {
		s.answerFallback(it)
		return
	}
	s.fetcher.fetch(url, toFallbackRequest, nil)
}

// toFallbackRequest is a §4.5 fallback fetch's continuation: the object is
// kept for later requests and answers the client's objectRequest.
func toFallbackRequest(of *originFetch, it sched.Item, _ bool) {
	of.f.s.storeItem(of.url, it)
	of.f.s.answerFallback(it)
}

func (s *ProxySession) answerFallback(it sched.Item) {
	rsp := objectResponse{Item: it}
	s.conn.Send(s.proxy.topo.Proxy, rsp.wireSize(), rsp, labelBundle, nil)
}
