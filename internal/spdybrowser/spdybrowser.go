// Package spdybrowser is the SPDY-proxy comparison arm the paper discusses
// qualitatively (Table 1, §3/§4.3) and leaves as future quantitative work:
// a traditional browser whose transport is SPDY-like — one multiplexed
// connection per domain, many outstanding requests, compressed headers —
// but whose object identification still happens on the mobile client.
package spdybrowser

import (
	"time"

	"github.com/parcel-go/parcel/internal/browser"
	"github.com/parcel-go/parcel/internal/httpsim"
	"github.com/parcel-go/parcel/internal/metrics"
	"github.com/parcel-go/parcel/internal/radio"
	"github.com/parcel-go/parcel/internal/scenario"
)

// Options tune the SPDY arm.
type Options struct {
	// RequestIssueCost mirrors the DIR client's per-request dispatch cost.
	RequestIssueCost time.Duration
	CPU              browser.CPUModel
	FixedRandom      bool
}

// Browser is one SPDY page-load session.
type Browser struct {
	Engine *browser.Engine
	Client *httpsim.SPDYClient
	topo   *scenario.Topology
}

type fetcher struct {
	topo      *scenario.Topology
	c         *httpsim.SPDYClient
	issueCost time.Duration
	issueBusy time.Duration
}

func (f *fetcher) Fetch(url string, cb func(browser.Result)) {
	do := func() {
		f.c.Do(httpsim.Request{Method: "GET", URL: url}, func(resp httpsim.Response, at time.Duration) {
			cb(browser.Result{URL: resp.URL, Status: resp.Status, ContentType: resp.ContentType, Body: resp.Body, At: at})
		})
	}
	if f.issueCost <= 0 {
		do()
		return
	}
	sim := f.topo.Sim
	start := sim.Now()
	if start < f.issueBusy {
		start = f.issueBusy
	}
	start += f.issueCost
	f.issueBusy = start
	sim.ScheduleAt(start, do)
}

// New prepares a SPDY-transport browser on the topology.
func New(topo *scenario.Topology, opt Options) *Browser {
	if opt.CPU == (browser.CPUModel{}) {
		opt.CPU = browser.MobileCPU()
	}
	if opt.RequestIssueCost == 0 {
		opt.RequestIssueCost = 3 * time.Millisecond
	}
	client := httpsim.NewSPDYClient(topo.Sim, topo.Client, topo.Dir, topo.ClientResolver)
	engine := browser.New(topo.Sim, &fetcher{topo: topo, c: client, issueCost: opt.RequestIssueCost}, browser.Options{
		CPU:         opt.CPU,
		FixedRandom: opt.FixedRandom,
		ExecCache:   topo.ExecCache,
		JSPools:     topo.JSPools,
	})
	return &Browser{Engine: engine, Client: client, topo: topo}
}

// Load runs the page to quiescence and returns the metrics.
func (b *Browser) Load() metrics.PageRun {
	b.Engine.Load(b.topo.Page.MainURL)
	b.topo.Sim.Run()
	run := metrics.PageRun{Scheme: "SPDY", Page: b.topo.Page.Name}
	onload, _ := b.Engine.OnloadNetAt()
	metrics.FromTrace(&run, b.topo.ClientTrace, onload, radio.DefaultLTE(), nil)
	run.CPUActive = b.Engine.CPUActive()
	run.HTTPRequests = b.Client.RequestsSent
	run.ConnsOpened = b.Client.ConnsOpened
	run.ObjectsLoaded = b.Engine.NumRequested()
	st := b.topo.Net.FaultStats()
	run.DroppedPackets = st.Dropped
	run.Retransmits = st.Retransmits
	run.RetransmitBytes = st.RetransmitBytes
	return run
}

// Run builds, loads and measures in one call.
func Run(topo *scenario.Topology, opt Options) metrics.PageRun {
	return New(topo, opt).Load()
}
