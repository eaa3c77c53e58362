package core

import (
	"sort"
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/scenario"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/simnet"
	"github.com/parcel-go/parcel/internal/trace"
)

// ClientConfig tunes the PARCEL client browser.
type ClientConfig struct {
	CPU         browser.CPUModel
	FixedRandom bool
	UserAgent   string
	Screen      string
}

// DefaultClientConfig returns the evaluation defaults.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		CPU:         browser.MobileCPU(),
		FixedRandom: true,
		UserAgent:   "PARCEL/1.0 (Android; Galaxy S3)",
		Screen:      "720x1280",
	}
}

// Client is the PARCEL client browser for one page session. It reuses the
// standard parsing/rendering engine (§5.2) but replaces object retrieval:
// objects arrive pushed from the proxy, requests for identified objects are
// suppressed, and only objects still missing after the proxy's completion
// notification are requested explicitly.
type Client struct {
	topo *scenario.Topology
	cfg  ClientConfig

	Engine *browser.Engine
	conn   *simnet.Conn

	store    map[string]sched.Item
	waiting  map[string][]func(browser.Result)
	notified bool

	// direct is the client's own HTTP client for the HTTPS fallback path
	// (§4.5); created lazily.
	direct      *httpsim.Client
	postSeq     int
	postWaiters map[int]func(browser.Result)

	// Fallbacks counts missing-object requests issued after the completion
	// notification (§4.5).
	Fallbacks int
	// DirectFetches counts HTTPS-fallback fetches that bypassed the proxy.
	DirectFetches int
	// BundlesReceived counts bundle messages from the proxy.
	BundlesReceived int
	// ObjectsReceived counts pushed objects (including fallback responses).
	ObjectsReceived int
	// SuppressedRequests counts engine fetches satisfied without any client
	// HTTP request — the request-suppression benefit of §4.5.
	SuppressedRequests int
}

// NewClient prepares a PARCEL client on the topology. The proxy must be
// started (StartProxy) before Load.
func NewClient(topo *scenario.Topology, cfg ClientConfig) *Client {
	if cfg.CPU == (browser.CPUModel{}) {
		cfg.CPU = browser.MobileCPU()
	}
	c := &Client{
		topo:        topo,
		cfg:         cfg,
		store:       make(map[string]sched.Item),
		waiting:     make(map[string][]func(browser.Result)),
		postWaiters: make(map[int]func(browser.Result)),
	}
	c.Engine = c.newEngine()
	return c
}

// newEngine builds the rendering engine for one load of the page: a revisit
// (Reload) replays scripts from the topology's memo like the first visit.
func (c *Client) newEngine() *browser.Engine {
	return browser.New(c.topo.Sim, bundleFetcher{c}, browser.Options{
		CPU:         c.cfg.CPU,
		FixedRandom: c.cfg.FixedRandom,
		ExecCache:   c.topo.ExecCache,
		JSPools:     c.topo.JSPools,
	})
}

// bundleFetcher is the client's Fetcher: it serves from the pushed-object
// store and defers misses instead of issuing network requests.
type bundleFetcher struct{ c *Client }

func (f bundleFetcher) Fetch(url string, cb func(browser.Result)) {
	c := f.c
	if sched.Direct(url) {
		// Encrypted objects bypass the proxy entirely (§4.5).
		c.directFetch(url, cb)
		return
	}
	if it, ok := c.store[url]; ok {
		c.SuppressedRequests++
		// The result carries the object's arrival time at the client (its
		// ArrivedAt was restamped on receive), so trace-derived OLT reflects
		// when the bytes landed, not when the parser got to them.
		cb(resultFromItem(it, it.ArrivedAt))
		return
	}
	c.waiting[url] = append(c.waiting[url], cb)
	if c.notified {
		c.requestMissing(url)
	}
}

func resultFromItem(it sched.Item, at time.Duration) browser.Result {
	status := it.Status
	if status == 0 {
		status = 200
	}
	return browser.Result{URL: it.URL, Status: status, ContentType: it.ContentType, Body: it.Body, At: at}
}

// Load runs the session: connect, send the page request, and process pushes
// until the page completes.
func (c *Client) Load() metrics.PageRun {
	c.Start()
	c.topo.Sim.Run()
	return c.Collect()
}

// Start begins the session without running the simulator (for callers that
// interleave other work).
func (c *Client) Start() {
	topo := c.topo
	req := pageRequest{URL: topo.Page.MainURL, UserAgent: c.cfg.UserAgent, Screen: c.cfg.Screen}
	c.conn = topo.Client.Dial(topo.Proxy, func(conn *simnet.Conn) {
		conn.Send(topo.Client, req.wireSize(), req, labelPageReq, nil)
	})
	c.conn.OnMessage(topo.Client, c.onMessage)
	c.Engine.Load(topo.Page.MainURL)
}

func (c *Client) onMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case bundleMsg:
		c.BundlesReceived++
		for _, it := range msg.Parts {
			c.receive(it, m.At)
		}
	case objectResponse:
		c.receive(msg.Item, m.At)
	case postResponse:
		if cb, ok := c.postWaiters[msg.ID]; ok {
			delete(c.postWaiters, msg.ID)
			cb(resultFromItem(msg.Item, m.At))
		}
	case completeNote:
		c.notified = true
		// Fallback requests go out in URL order: map order here would make
		// TLT, BytesUp and radio energy differ from run to run.
		missing := make([]string, 0, len(c.waiting))
		for url := range c.waiting {
			missing = append(missing, url)
		}
		sort.Strings(missing)
		for _, url := range missing {
			c.requestMissing(url)
		}
	}
}

// receive stores one pushed object and satisfies any deferred engine fetch.
// The item's ArrivedAt is restamped with the client-side arrival time.
func (c *Client) receive(it sched.Item, at time.Duration) {
	c.ObjectsReceived++
	it.ArrivedAt = at
	c.store[it.URL] = it
	if cbs, ok := c.waiting[it.URL]; ok {
		delete(c.waiting, it.URL)
		for _, cb := range cbs {
			cb(resultFromItem(it, at))
		}
	}
}

// Objects lists the URLs the client holds (pushed or fallback-fetched), sorted.
func (c *Client) Objects() []string {
	urls := make([]string, 0, len(c.store))
	for u := range c.store {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

// requestMissing issues the §4.5 fallback request for one URL.
func (c *Client) requestMissing(url string) {
	c.Fallbacks++
	req := objectRequest{URL: url}
	c.conn.Send(c.topo.Client, 180+len(url), req, labelObjReq, nil)
}

// Collect assembles the session metrics.
func (c *Client) Collect() metrics.PageRun {
	var col metrics.Collector
	return c.CollectWith(&col)
}

// CollectWith is Collect reducing the trace through col's reusable scratch
// (for batch engines that collect many sessions per worker).
func (c *Client) CollectWith(col *metrics.Collector) metrics.PageRun {
	run := metrics.PageRun{Scheme: "PARCEL", Page: c.topo.Page.Name}
	onload, _ := c.Engine.OnloadNetAt()
	// Control messages (the completion notification, seconds after the last
	// object) are not page content; TLT and the energy window exclude them.
	col.FromTrace(&run, c.topo.ClientTrace, onload, radio.DefaultLTE(), func(p trace.Packet) bool {
		return !strings.HasPrefix(p.Label, ctlPrefix)
	})
	run.CPUActive = c.Engine.CPUActive()
	run.HTTPRequests = 1 + c.Fallbacks
	run.ConnsOpened = 1
	run.ObjectsLoaded = c.Engine.NumRequested()
	run.FallbackRequests = c.Fallbacks
	fillFaultStats(&run, c.topo.Net.FaultStats())
	return run
}

// fillFaultStats copies the network's injection counters into the run.
func fillFaultStats(run *metrics.PageRun, st simnet.FaultStats) {
	run.DroppedPackets = st.Dropped
	run.Retransmits = st.Retransmits
	run.RetransmitBytes = st.RetransmitBytes
}

// Run builds the proxy and client on a topology and measures one page load
// with the given schedule.
func Run(topo *scenario.Topology, proxyCfg ProxyConfig, clientCfg ClientConfig) metrics.PageRun {
	StartProxy(topo, proxyCfg)
	client := NewClient(topo, clientCfg)
	run := client.Load()
	run.Scheme = proxyCfg.Sched.String()
	return run
}
