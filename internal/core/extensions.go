package core

import (
	"strings"
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/htmlparse"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/sched"
	"github.com/parcel-go/parcel/internal/trace"
)

// This file implements the §4.5 practical mechanisms beyond the core push
// path: the HTTPS fallback, POST relaying, the personalized-proxy cache
// mirror for repeat visits, and the (orthogonal, §3) proxy-side compression.

// --- HTTPS fallback -----------------------------------------------------------

// directFetch routes one client fetch over the traditional path: the
// client's own connection to the origin, TLS included.
func (c *Client) directFetch(url string) {
	if c.direct == nil {
		c.direct = httpsim.NewClientWithPools(c.topo.Sim, c.topo.Client, c.topo.Dir, c.topo.ClientResolver, 6, c.topo.HTTPPools)
	}
	c.direct.Do(httpsim.Request{Method: "GET", URL: url}, func(resp httpsim.Response, at time.Duration) {
		it := sched.Item{URL: url, Status: resp.Status, ContentType: resp.ContentType, Body: resp.Body, ArrivedAt: at}
		c.Fetched(it, true)
		c.land(it, at)
	})
}

// --- POST relaying --------------------------------------------------------------

// postRequest relays a form submission through the proxy (§4.5).
type postRequest struct {
	ID       int
	URL      string
	BodySize int
}

func (r postRequest) wireSize() int { return 260 + len(r.URL) + r.BodySize }

// postResponse answers a relayed POST.
type postResponse struct {
	ID   int
	Item sched.Item
}

func (r postResponse) wireSize() int {
	return 300 + len(r.Item.URL) + len(r.Item.Body)
}

// Post relays a POST through the proxy. cb receives the response; if the
// response is HTML, the proxy additionally identifies and pushes the objects
// it references before the client asks (§4.5).
func (c *Client) Post(url string, bodySize int, cb func(browser.Result)) {
	c.postSeq++
	id := c.postSeq
	c.postWaiters[id] = cb
	req := postRequest{ID: id, URL: url, BodySize: bodySize}
	c.conn.Send(c.topo.Client, req.wireSize(), req, labelObjReq, nil)
}

// handlePost runs at the proxy: relay to the origin, forward the response,
// and process HTML responses for further objects.
func (s *ProxySession) handlePost(req postRequest) {
	s.fetcher.client.Do(httpsim.Request{Method: "POST", URL: req.URL, BodySize: req.BodySize},
		func(resp httpsim.Response, at time.Duration) {
			it := sched.Item{URL: resp.URL, ContentType: resp.ContentType, Status: resp.Status, Body: resp.Body, ArrivedAt: at}
			rsp := postResponse{ID: req.ID, Item: it}
			s.conn.Send(s.proxy.topo.Proxy, rsp.wireSize(), rsp, labelBundle, nil)
			// §4.5: HTML POST responses are processed like pages — their
			// objects are identified and fetched proactively; responses
			// without content (e.g. 204) are forwarded unmodified.
			if resp.Status < 400 && strings.Contains(resp.ContentType, "html") {
				s.discoverPostObjects(resp)
			}
		})
}

// discoverPostObjects parses an HTML POST response and fetches its objects
// through the session fetcher (which pushes them to the client).
func (s *ProxySession) discoverPostObjects(resp httpsim.Response) {
	root, err := htmlparse.Parse(resp.Body)
	if err != nil {
		return
	}
	for _, res := range htmlparse.Resources(root, resp.URL) {
		if sched.Direct(res.URL) {
			continue
		}
		if _, seen := s.cache[res.URL]; seen {
			continue
		}
		s.fetcher.Fetch(res.URL, func(browser.Result) {})
	}
}

// --- repeat visits (personalized proxy mirror, §4.5) ----------------------------

// Reload loads the session's page again on the same proxy connection. The
// personalized proxy mirrors the client's cache state (§4.5 "the proxy to
// track the object versions sent to the client"), so unchanged objects are
// not pushed again; the client renders them from its local store. It returns
// the reload's metrics measured from the reload start.
func (c *Client) Reload() metrics.PageRun {
	topo := c.topo
	start := topo.Sim.Now()
	packetsBefore := topo.ClientTrace.Len()

	// A fresh engine renders the revisit; the object store persists (the
	// device cache).
	c.Engine = c.newEngine()
	c.ClientSession.Start(topo.Page.MainURL, start)
	req := pageRequest{URL: topo.Page.MainURL, UserAgent: clientUserAgent, Screen: clientScreen}
	c.conn.Send(topo.Client, req.wireSize(), req, labelPageReq, nil)
	c.Engine.Load(topo.Page.MainURL)
	topo.Sim.Run()

	run := metrics.PageRun{Scheme: "PARCEL(revisit)", Page: topo.Page.Name}
	onload, _ := c.Engine.OnloadNetAt()
	if onload == 0 {
		// Fully cache-served revisit: the network OLT is the reload instant.
		onload = start
	}
	run.OLT = onload - start
	var lastData time.Duration
	for _, p := range topo.ClientTrace.PacketsSince(packetsBefore) {
		if p.Kind == trace.KindData && !strings.HasPrefix(p.Label, ctlPrefix) && p.At > lastData {
			lastData = p.At
		}
	}
	if lastData > start {
		run.TLT = lastData - start
	}
	// Match the page-load energy methodology: the window ends with the last
	// page-content packet; a fully cache-served revisit is charged only for
	// its control exchange burst.
	horizon := run.TLT
	var acts []radio.Activity
	for _, p := range topo.ClientTrace.PacketsSince(packetsBefore) {
		rel := p.At - start
		if horizon == 0 {
			horizon = rel + 500*time.Millisecond // request burst only
		}
		acts = append(acts, radio.Activity{At: rel, Bytes: p.Size})
	}
	filtered := acts[:0]
	for _, a := range acts {
		if a.At <= horizon {
			filtered = append(filtered, a)
		}
	}
	rep := radio.Simulate(filtered, radio.DefaultLTE(), horizon)
	run.Radio = rep
	run.RadioJ = rep.TotalEnergy
	run.CPUActive = c.Engine.CPUActive()
	run.ObjectsLoaded = c.Engine.NumRequested()
	return run
}
