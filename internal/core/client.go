package core

import (
	"cmp"
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

// The client device (§7.1's Galaxy S3): its engine runs on browser.MobileCPU,
// and its page request tells the proxy which device to emulate (§4.5).
const (
	clientUserAgent = "PARCEL/1.0 (Android; Galaxy S3)"
	clientScreen    = "720x1280"
)

// ClientConfig tunes the PARCEL client browser.
type ClientConfig struct {
	// FixedRandom applies the §7.3 replay rewrite in the client's engine.
	// Off, the client's scripts derive URLs the proxy never fetched, and
	// the page reaches them through the §4.5 fallback.
	FixedRandom bool
}

// DefaultClientConfig returns the evaluation defaults.
func DefaultClientConfig() ClientConfig { return ClientConfig{FixedRandom: true} }

// Client is the PARCEL client browser for one page session: the standard
// parsing/rendering engine (§5.2), whose fetches drive sched.ClientSession.
// It keeps the simnet conn, the engine's callbacks and the direct httpsim
// client.
type Client struct {
	sched.ClientSession
	topo *scenario.Topology
	cfg  ClientConfig

	Engine  *browser.Engine
	conn    *simnet.Conn
	waiting map[string][]func(browser.Result)

	direct      *httpsim.Client // the client's own path (§4.5), made on first use
	postSeq     int
	postWaiters map[int]func(browser.Result)
}

// NewClient prepares a PARCEL client on the topology. The proxy must be
// started (StartProxy) before Load.
func NewClient(topo *scenario.Topology, cfg ClientConfig) *Client {
	c := &Client{
		ClientSession: sched.NewClientSession(true, topo.Page.ObjectCount),
		topo:          topo,
		cfg:           cfg,
		waiting:       make(map[string][]func(browser.Result)),
		postWaiters:   make(map[int]func(browser.Result)),
	}
	c.Engine = c.newEngine()
	return c
}

// newEngine builds the rendering engine for one load of the page: a revisit
// (Reload) replays scripts from the topology's memo like the first visit.
func (c *Client) newEngine() *browser.Engine {
	return browser.New(c.topo.Sim, bundleFetcher{c}, browser.Options{
		CPU:         browser.MobileCPU(),
		FixedRandom: c.cfg.FixedRandom,
		ExecCache:   c.topo.ExecCache,
		JSPools:     c.topo.JSPools,
		Objects:     c.topo.Page.ObjectCount,
	})
}

// bundleFetcher is the client's Fetcher: the session answers each fetch.
type bundleFetcher struct{ c *Client }

func (f bundleFetcher) Fetch(url string, cb func(browser.Result)) {
	c := f.c
	it, act := c.Want(url)
	if act == sched.Deliver {
		// The result carries the object's arrival time at the client, so
		// trace-derived OLT reflects when the bytes landed, not when the
		// parser got to them.
		cb(resultFromItem(it, it.ArrivedAt))
		return
	}
	c.waiting[url] = append(c.waiting[url], cb)
	switch act {
	case sched.Request:
		c.request(url)
	case sched.FetchDirect:
		c.directFetch(url)
	}
}

func resultFromItem(it sched.Item, at time.Duration) browser.Result {
	return browser.Result{URL: it.URL, Status: cmp.Or(it.Status, 200), ContentType: it.ContentType, Body: it.Body, At: at}
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
	c.ClientSession.Start(topo.Page.MainURL, topo.Sim.Now())
	req := pageRequest{URL: topo.Page.MainURL, UserAgent: clientUserAgent, Screen: clientScreen}
	c.conn = topo.Client.Dial(topo.Proxy, func(conn *simnet.Conn) {
		conn.Send(topo.Client, req.wireSize(), req, labelPageReq, nil)
	})
	c.conn.OnMessage(topo.Client, c.onMessage)
	c.Engine.Load(topo.Page.MainURL)
}

func (c *Client) onMessage(m simnet.Message) {
	switch msg := m.Payload.(type) {
	case bundleMsg:
		for _, it := range msg.Parts {
			c.Received(it, m.At)
			c.land(it, m.At)
		}
	case postResponse:
		if cb, ok := c.postWaiters[msg.ID]; ok {
			delete(c.postWaiters, msg.ID)
			cb(resultFromItem(msg.Item, m.At))
		}
	case completeNote:
		for _, url := range c.Complete(msg.Counts, m.At).Request {
			c.request(url)
		}
	}
}

// land hands an object that arrived at at to the engine fetches waiting for
// it: none wait for a duplicate, since the first arrival answered them.
func (c *Client) land(it sched.Item, at time.Duration) {
	cbs := c.waiting[it.URL]
	delete(c.waiting, it.URL)
	for _, cb := range cbs {
		cb(resultFromItem(it, at))
	}
}

// request issues the §4.5 fallback request for one URL.
func (c *Client) request(url string) {
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
	st := c.topo.Net.FaultStats()
	run.DroppedPackets, run.Retransmits, run.RetransmitBytes = st.Dropped, st.Retransmits, st.RetransmitBytes
	return run
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
